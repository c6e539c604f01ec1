(** A forgiving HTML lexer.

    One markup scanner ({!scan}) splits a document into spans: text runs,
    tag names, comments, doctypes and script/style bodies. It reports
    positions only and copies nothing. {!lex} folds it into a flat list of
    events for {!Dom} (the crawler's link extraction, the tag-heuristic
    baseline, the vertical-table transposer); the tokenizer folds it
    straight into tokens. Real-world list pages are rarely well formed, so the scanner
    never fails: anything it cannot make sense of is text. *)

type attribute = { name : string; value : string option }

type event =
  | Start_tag of { name : string; attributes : attribute list;
                   self_closing : bool }
      (** [<name attr=...>]; [name] is lowercased. *)
  | End_tag of string  (** [</name>]; lowercased. *)
  | Text of string  (** raw text run, entities not yet decoded *)
  | Comment of string  (** contents of [<!-- ... -->] *)
  | Doctype of string  (** contents of [<!DOCTYPE ...>] *)

(** {1 The markup scanner} *)

type span =
  | Text_span  (** a run of text between markup, entities not decoded *)
  | Start_name
      (** a start tag's name; its attributes run from the span's end to
          the tag's first ['>'] (or the end of input) *)
  | End_name  (** an end tag's name *)
  | Raw_span  (** the body of a script or style element *)
  | Comment_span  (** the contents of a comment *)
  | Doctype_span  (** the contents of a doctype or other [<!...>] *)

val scan : ('a -> span -> int -> int -> 'a) -> 'a -> string -> 'a
(** [scan f init html] folds [f acc span start stop] over the document's
    spans in order; each covers [html.[start]] to [html.[stop - 1]].
    Nothing is copied or allocated per byte. The rules, which {!lex} and
    the tokenizer share:
    - A ['<'] starts markup only when followed by ["!--"] (a comment,
      to the first ["-->"] after the ["<!--"], so ["<!-->"] does not
      close itself; unterminated, to the end), by ['!'] (a doctype, to
      the first ['>'] or the end), by ['/'] and a tag-name character (an
      end tag) or by a tag-name character (a start tag). Tag-name
      characters are ASCII letters, digits, ['-'] and [':']; a name is
      their longest run, and the tag ends at the first ['>'] after it,
      quotes notwithstanding, or at the end of input.
    - Any other ['<'] (a lone one, or ["</ "]) is literal text. Text
      spans are the non-empty runs between markup.
    - A [script] or [style] start tag (in any case) opens a raw body,
      unless it closes itself: a ['/'] just before its ['>'] where an
      attribute would begin (["<script a='/'>"] and ["<SCRIPT src=x/>"]
      do not close themselves). The body runs to the first ["</script"]
      or ["</style"] (in any case) followed by whitespace, ['>'] or the
      end of input, or else to the end of input. It is reported as a
      [Raw_span] when non-empty and is always followed by an [End_name]
      span, which is the opening tag's name.
    Whitespace is the five bytes of {!is_space}. *)

val is_space : char -> bool
(** Space, tab, newline, carriage return and form feed: the bytes
    [String.trim] strips. *)

val is_benign_punctuation : char -> bool
(** The paper's benign punctuation [.,()-] (Section 3.2), which occurs
    inside values and so neither splits words nor separates fields. *)

val byte_classes : string
(** The table the predicates above read, one byte per character code. A
    per-byte loop in another module reads it directly: dune's default
    profile compiles with [-opaque], so a predicate from another module
    would cost a call per byte. *)

val space_class : int
(** Set in [byte_classes.[Char.code c]] when [is_space c]. *)

val special_class : int
(** Set for special punctuation: an ASCII byte that is not alphanumeric,
    not whitespace and not benign punctuation. The tokenizer makes each
    one a token of its own. *)

(** {1 Events} *)

val lex : string -> event list
(** [lex html] is {!scan} folded into events: one [Text] per text span
    and per raw body, one [Start_tag] per start tag with its attributes
    (names lowercased, values as written), and one [End_tag] per end tag,
    including the one that follows a raw body. *)

val attribute_value : attribute list -> string -> string option
(** [attribute_value attrs name] is the (entity-decoded) value of the first
    attribute called [name] (case-insensitive), if present and valued. *)

val pp_event : Format.formatter -> event -> unit
