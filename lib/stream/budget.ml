(** Live-token accounting for a stream.

    The engine charges every token buffer it retains (head list pages, the
    open unit's page, the transient tokens of the detail page under match)
    and releases the charge as soon as the buffer is dropped. Raw pages
    buffered before the head window seals are charged at an estimated
    token count. The high watermark is the stream's memory story — the
    summary's [live_tokens_hwm] — and [cap] turns it into a hard bound. *)

type t = {
  cap : int option;
  mutable live : int;
  mutable hwm : int;
}

exception Exceeded of { live : int; cap : int }
(** Raised by {!charge} when the hard bound is crossed; the stream cannot
    continue without holding more than [cap] live tokens. *)

let create ?cap () = { cap; live = 0; hwm = 0 }

let charge t n =
  t.live <- t.live + n;
  if t.live > t.hwm then t.hwm <- t.live;
  match t.cap with
  | Some cap when t.live > cap -> raise (Exceeded { live = t.live; cap })
  | _ -> ()

let release t n = t.live <- max 0 (t.live - n)
let live t = t.live
let high_watermark t = t.hwm

(* Raw HTML buffered before tokenization: ~4 bytes per eventual token is a
   conservative estimate for the generator's markup-heavy pages. *)
let estimate_tokens html = (String.length html + 3) / 4
