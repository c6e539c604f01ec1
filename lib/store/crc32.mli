(** CRC-32 (the IEEE 802.3 polynomial [0x04C11DB7], bit-reflected) — the one
    checksum of the store's segment log ({!Store}) and of the gateway's
    wire frames ([Tabseg_gateway.Wire]).

    Computed by slicing-by-8 over eight 256-entry tables built at module
    initialisation; the values are those of the classic byte-at-a-time
    table loop ([string "123456789" 0 9 = 0xCBF43926]). *)

val string : string -> int -> int -> int
(** [string s off len] is the CRC-32 of [s.[off] .. s.[off + len - 1]],
    as a non-negative int below [2{^32}]. Raises [Invalid_argument] if
    [off] and [len] do not designate a valid substring of [s]. *)

val bytes : bytes -> int -> int -> int
(** {!string} over a byte buffer, without copying it. *)
