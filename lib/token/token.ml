type kind =
  | Start_tag of string
  | End_tag of string
  | Word

type t = { text : string; kind : kind; types : int; index : int }

let word ~index text =
  { text; kind = Word; types = Token_type.classify_word text; index }

let start_tag ~index name =
  { text = "<" ^ name ^ ">"; kind = Start_tag name;
    types = Token_type.html_mask; index }

let end_tag ~index name =
  { text = "</" ^ name ^ ">"; kind = End_tag name;
    types = Token_type.html_mask; index }

let is_tag t = match t.kind with Start_tag _ | End_tag _ -> true | Word -> false
let is_word t = t.kind = Word

let benign_punctuation = [ '.'; ','; '('; ')'; '-' ]

let is_separator t =
  match t.kind with
  | Start_tag _ | End_tag _ -> true
  | Word ->
    Token_type.mem Token_type.Punctuation t.types
    && String.exists (fun c -> not (List.mem c benign_punctuation)) t.text

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
