type kind =
  | Start_tag of string
  | End_tag of string
  | Word

type t = { text : string; kind : kind; types : int; index : int }

let word ~index text =
  { text; kind = Word; types = Token_type.classify_word text; index }

type shape = { shape_text : string; shape_kind : kind }

let start_shape name = { shape_text = "<" ^ name ^ ">"; shape_kind = Start_tag name }
let end_shape name = { shape_text = "</" ^ name ^ ">"; shape_kind = End_tag name }

let tag ~index shape =
  { text = shape.shape_text; kind = shape.shape_kind;
    types = Token_type.html_mask; index }

let start_tag ~index name = tag ~index (start_shape name)
let end_tag ~index name = tag ~index (end_shape name)

let is_tag t = match t.kind with Start_tag _ | End_tag _ -> true | Word -> false
let is_word t =
  match t.kind with Word -> true | Start_tag _ | End_tag _ -> false

(* True when [text.[i..stop-1]] has no letter or digit, and [other] or
   some byte outside the benign set. *)
let rec punctuation_separates text i stop other =
  if i >= stop then other
  else
    match String.unsafe_get text i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> false
    | c ->
      punctuation_separates text (i + 1) stop
        (other || not (Tabseg_html.Lexer.is_benign_punctuation c))

let separator_word text start stop = punctuation_separates text start stop false

let is_separator t =
  match t.kind with
  | Start_tag _ | End_tag _ -> true
  | Word -> separator_word t.text 0 (String.length t.text)

(* A tag's [text] is already its "<name>" / "</name>" rendering. *)
let template_key t = t.text

let equal_for_template a b = template_key a = template_key b

let pp ppf t =
  match t.kind with
  | Word ->
    Format.fprintf ppf "%S:%s" t.text
      (String.concat "+"
         (List.map Token_type.to_string (Token_type.to_list t.types)))
  | Start_tag _ | End_tag _ -> Format.pp_print_string ppf t.text
