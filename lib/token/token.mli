(** Tokens of a tokenized Web page. *)

type kind =
  | Start_tag of string  (** lowercased tag name *)
  | End_tag of string
  | Word  (** a visible text token *)

type t = private {
  text : string;
      (** visible text for [Word]; canonical rendering for tags *)
  kind : kind;
  types : int;  (** {!Token_type} bitmask *)
  index : int;  (** position in the page's token stream *)
}
(** Tokens come only from {!word}, {!tag}, {!start_tag} and {!end_tag},
    so a tag's [text] is always its canonical ["<name>"] / ["</name>"]. *)

val word : index:int -> string -> t
(** Make a [Word] token, classifying its types. *)

type shape
(** A tag's kind and canonical text. *)

val start_shape : string -> shape
(** The shape of the start tag [<name>], from its lowercased name. *)

val end_shape : string -> shape
(** The shape of the end tag [</name>]. *)

val tag : index:int -> shape -> t
(** A tag token of the given shape. Every token made from one shape
    shares its text and kind, so a tokenizer that makes each distinct
    tag's shape once per page allocates only the token itself per tag. *)

val start_tag : index:int -> string -> t
(** [start_tag ~index name] is [tag ~index (start_shape name)]. *)

val end_tag : index:int -> string -> t

val is_tag : t -> bool
val is_word : t -> bool

val is_separator : t -> bool
(** Per Section 3.2: HTML tags are separators; so is a punctuation-only
    token containing any character outside the benign set [.,()-]
    ({!Tabseg_html.Lexer.is_benign_punctuation}). A word token is one when
    {!separator_word} holds of its text. *)

val separator_word : string -> int -> int -> bool
(** [separator_word s start stop]: the word [s.[start..stop-1]] is a
    separator — it has no ASCII letter or digit (its {!Token_type} is
    punctuation) and some byte outside the benign set. The one rule for
    word tokens and for the tokenizer's word scan, which tests a word in
    place before it copies it. *)

val template_key : t -> string
(** Equality key used by template induction: tags compare by name and
    start/end polarity only (attribute values such as hrefs vary page to
    page); words compare by exact text. It is [text], allocated once when
    the token is made. *)

val equal_for_template : t -> t -> bool

val pp : Format.formatter -> t -> unit
