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

let rec all_benign text i =
  i >= String.length text
  || Tabseg_html.Lexer.is_benign_punctuation (String.unsafe_get text i)
     && all_benign text (i + 1)

let is_separator t =
  match t.kind with
  | Start_tag _ | End_tag _ -> true
  | Word ->
    Token_type.mem Token_type.Punctuation t.types && not (all_benign t.text 0)

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
