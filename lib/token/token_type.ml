type t =
  | Html
  | Punctuation
  | Alphanumeric
  | Numeric
  | Alphabetic
  | Capitalized
  | Lowercased
  | Allcaps

let all =
  [ Html; Punctuation; Alphanumeric; Numeric; Alphabetic; Capitalized;
    Lowercased; Allcaps ]

let count = 8

let to_bit = function
  | Html -> 0
  | Punctuation -> 1
  | Alphanumeric -> 2
  | Numeric -> 3
  | Alphabetic -> 4
  | Capitalized -> 5
  | Lowercased -> 6
  | Allcaps -> 7

let of_bit = function
  | 0 -> Html
  | 1 -> Punctuation
  | 2 -> Alphanumeric
  | 3 -> Numeric
  | 4 -> Alphabetic
  | 5 -> Capitalized
  | 6 -> Lowercased
  | 7 -> Allcaps
  | n -> invalid_arg (Printf.sprintf "Token_type.of_bit: %d" n)

let mem ty mask = mask land (1 lsl to_bit ty) <> 0
let add ty mask = mask lor (1 lsl to_bit ty)
let to_list mask = List.filter (fun ty -> mem ty mask) all

let html_mask = 1 lsl to_bit Html

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_upper c = c >= 'A' && c <= 'Z'

let classify_word s =
  let letters = ref 0 and uppers = ref 0 and digits = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if is_letter c then begin
      incr letters;
      if is_upper c then incr uppers
    end
    else if is_digit c then incr digits
  done;
  let mask = ref 0 in
  let alnum = !letters > 0 || !digits > 0 in
  if alnum then mask := add Alphanumeric !mask
  else if String.length s > 0 then mask := add Punctuation !mask;
  if !digits > 0 && !letters = 0 then mask := add Numeric !mask;
  if !letters > 0 && !digits = 0 then begin
    mask := add Alphabetic !mask;
    if !uppers = !letters then mask := add Allcaps !mask
    else if !uppers = 0 then mask := add Lowercased !mask
    else if is_upper s.[0] && !uppers = 1 then mask := add Capitalized !mask
  end;
  !mask

let to_string = function
  | Html -> "html"
  | Punctuation -> "punct"
  | Alphanumeric -> "alnum"
  | Numeric -> "numeric"
  | Alphabetic -> "alpha"
  | Capitalized -> "capitalized"
  | Lowercased -> "lowercased"
  | Allcaps -> "allcaps"

let pp ppf ty = Format.pp_print_string ppf (to_string ty)
