(** Page tokenizer (paper Section 3.1).

    Splits an HTML document into a stream of tokens: each tag is one token;
    visible text is entity-decoded and split on whitespace, with "special"
    punctuation characters (anything outside [.,()-]) additionally split off
    as their own single-character tokens so that they act as field
    separators even without surrounding whitespace (e.g. [a~b]). The
    contents of script and style elements, comments and doctypes produce no
    tokens.

    {!tokenize} and {!scan_words} each make one pass: they fold
    {!Tabseg_html.Lexer.scan} through the same splitting, with no event
    list and no attribute values. A text run without ['&'] is split in
    place from the page, the UTF-8 non-breaking space counting as
    whitespace; one with an entity is decoded first, and the words the
    first try kept are dropped. {!tokenize} makes each distinct tag's text
    and kind once per page ({!Token.tag}); one-byte ASCII words share
    their text. {!Tabseg_html.Lexer.lex} and {!Tabseg_html.Dom}, which
    keep attributes, serve the crawler's link extraction, the
    tag-heuristic baseline and the vertical-table transposer. *)

val tokenize : string -> Token.t array
(** Tokenize an HTML document. Token [index] fields are consecutive from
    0. *)

type word_scan = {
  words : string array;
      (** the page's non-separator words ({!Token.separator_word}), in
          order *)
  indices : int array;  (** the token index of each word *)
  token_count : int;  (** the number of tokens on the page *)
}
(** What matching reads of a detail page (paper Section 3.2): the words
    a value can match, skipping the separators between them. *)

val scan_words : string -> word_scan
(** [scan_words html] is [word_scan_of_tokens (tokenize html)], made
    without any {!Token.t}: a tag only advances the token count, and a
    word is tested in place and copied only when it is kept. *)

val word_scan_of_tokens : Token.t array -> word_scan
(** The non-separator word tokens of a stream ({!Token.is_word} and not
    {!Token.is_separator}), their indices, and the stream's length. *)

val words : Token.t array -> Token.t list
(** The visible (non-tag) tokens of a stream, in order. *)

val visible_text : Token.t array -> string
(** The visible text of the page: word tokens joined with single spaces. *)
