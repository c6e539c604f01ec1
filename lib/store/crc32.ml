(* Slicing-by-8 CRC-32. Table k maps a byte to the CRC of that byte
   followed by k zero bytes, so one step folds eight input bytes with
   eight independent lookups instead of eight dependent byte steps. The
   tables are one flat array, table k at [k * 256]; they are built at
   module initialisation and only read afterwards, so domains may share
   them. *)

let polynomial = 0xedb88320

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then polynomial lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Unchecked loads: [string] checks its window once, up front. *)
let[@inline] table k i = Array.unsafe_get tables ((k * 256) + i)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let string s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.string";
  let c = ref 0xffffffff in
  let i = ref off in
  let last8 = off + len - 8 in
  while !i <= last8 do
    let p = !i and x = !c in
    c :=
      table 7 ((x lxor byte s p) land 0xff)
      lxor table 6 (((x lsr 8) lxor byte s (p + 1)) land 0xff)
      lxor table 5 (((x lsr 16) lxor byte s (p + 2)) land 0xff)
      lxor table 4 ((x lsr 24) lxor byte s (p + 3))
      lxor table 3 (byte s (p + 4))
      lxor table 2 (byte s (p + 5))
      lxor table 1 (byte s (p + 6))
      lxor table 0 (byte s (p + 7));
    i := p + 8
  done;
  for p = !i to off + len - 1 do
    c := table 0 ((!c lxor byte s p) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let bytes b off len = string (Bytes.unsafe_to_string b) off len
