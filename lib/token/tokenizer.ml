module Lexer = Tabseg_html.Lexer

(* A tag of the page being tokenized, keyed by its lowercased name and
   polarity; its shape is made once and shared by every token of it. *)
type tag = { name : string; closing : bool; shape : Token.shape }

(* The state of one fold over a page. [tokenize] fills [tokens]; the word
   scan ([words_only]) makes no token and fills [words] and [indices]
   instead. *)
type page = {
  html : string;
  words_only : bool;
  mutable count : int;  (** tokens so far, made or not *)
  mutable tokens : Token.t array;  (** the first [count] are the page's *)
  mutable tags : tag array;  (** open addressing, [no_tag] when free *)
  mutable tag_count : int;
  mutable words : string array;  (** the first [kept] non-separator words *)
  mutable indices : int array;  (** the token index of each *)
  mutable kept : int;
}

let no_tag = { name = ""; closing = false; shape = Token.start_shape "" }

(* One-byte ASCII words, special punctuation among them, share their
   text. *)
let one_byte = Array.init 128 (fun code -> String.make 1 (Char.chr code))

let add p token =
  if p.count = Array.length p.tokens then begin
    let grown = Array.make (2 * p.count) token in
    Array.blit p.tokens 0 grown 0 p.count;
    p.tokens <- grown
  end;
  Array.unsafe_set p.tokens p.count token;
  p.count <- p.count + 1

let word_text text start stop =
  let code = Char.code (String.unsafe_get text start) in
  if stop - start = 1 && code < 128 then Array.unsafe_get one_byte code
  else String.sub text start (stop - start)

(* Keep a non-separator word of the word scan, with its token index. *)
let keep p text start stop =
  if p.kept = Array.length p.words then begin
    let size = 2 * p.kept in
    let words = Array.make size "" and indices = Array.make size 0 in
    Array.blit p.words 0 words 0 p.kept;
    Array.blit p.indices 0 indices 0 p.kept;
    p.words <- words;
    p.indices <- indices
  end;
  Array.unsafe_set p.words p.kept (word_text text start stop);
  Array.unsafe_set p.indices p.kept p.count;
  p.kept <- p.kept + 1

let add_word p text start stop =
  if p.words_only then begin
    if not (Token.separator_word text start stop) then keep p text start stop;
    p.count <- p.count + 1
  end
  else add p (Token.word ~index:p.count (word_text text start stop))

let classes = Lexer.byte_classes
let space = Lexer.space_class
let special = Lexer.special_class
let breaks = space lor special

let is_nbsp text i stop =
  String.unsafe_get text i = '\xc2' && i + 1 < stop && String.unsafe_get text (i + 1) = '\xa0'

(* The end of the word that runs from [i]: the first whitespace or special
   punctuation byte, or UTF-8 non-breaking space (the expansion of
   [&nbsp;]), at or after [i]. *)
let rec word_end text i stop =
  if i >= stop then stop
  else if
    Char.code (String.unsafe_get classes (Char.code (String.unsafe_get text i))) land breaks <> 0
    || is_nbsp text i stop
  then i
  else word_end text (i + 1) stop

(* Split [text.[i..stop-1]] into words; each special punctuation byte is a
   word of its own. When [raw], an '&' stops the split and returns false:
   the run must be entity-decoded first. *)
let rec split p text ~raw i stop =
  if i >= stop then true
  else begin
    let c = String.unsafe_get text i in
    let cls = Char.code (String.unsafe_get classes (Char.code c)) in
    if cls land space <> 0 then split p text ~raw (i + 1) stop
    else if is_nbsp text i stop then split p text ~raw (i + 2) stop
    else if cls land special = 0 then begin
      let stop_word = word_end text (i + 1) stop in
      add_word p text i stop_word;
      split p text ~raw stop_word stop
    end
    else if c = '&' && raw then false
    else begin
      add_word p text i (i + 1);
      split p text ~raw (i + 1) stop
    end
  end

(* A text run is split in place from the page; one with an '&' is
   entity-decoded and split again, replacing what the first try added
   (tokens or kept words). *)
let add_text p start stop =
  let added = p.count and kept = p.kept in
  if not (split p p.html ~raw:true start stop) then begin
    p.count <- added;
    p.kept <- kept;
    let decoded = Tabseg_html.Entity.decode (String.sub p.html start (stop - start)) in
    ignore (split p decoded ~raw:false 0 (String.length decoded))
  end

let rec hash s i stop h =
  if i >= stop then h land max_int
  else hash s (i + 1) stop ((h * 31) + Char.code (Char.lowercase_ascii (String.unsafe_get s i)))

let rec same_name s i stop name k =
  i >= stop
  || Char.lowercase_ascii (String.unsafe_get s i) = String.unsafe_get name k
     && same_name s (i + 1) stop name (k + 1)

let slot tags h = h land (Array.length tags - 1)

let rec insert tags entry i =
  if tags.(i) == no_tag then tags.(i) <- entry else insert tags entry (slot tags (i + 1))

let hash_tag entry = hash entry.name 0 (String.length entry.name) (Bool.to_int entry.closing)

(* Add the tag named [html.[start..stop-1]] to the page's table, doubling
   the table when it would be more than half full. *)
let make_shape p closing start stop =
  let name = String.lowercase_ascii (String.sub p.html start (stop - start)) in
  let shape = if closing then Token.end_shape name else Token.start_shape name in
  let entry = { name; closing; shape } in
  if 2 * (p.tag_count + 1) > Array.length p.tags then begin
    let tags = Array.make (2 * Array.length p.tags) no_tag in
    Array.iter (fun old -> if old != no_tag then insert tags old (slot tags (hash_tag old))) p.tags;
    p.tags <- tags
  end;
  insert p.tags entry (slot p.tags (hash_tag entry));
  p.tag_count <- p.tag_count + 1;
  shape

(* The shape of the tag named [html.[start..stop-1]], probing from [i]. *)
let rec shape p closing start stop i =
  let entry = Array.unsafe_get p.tags i in
  if entry == no_tag then make_shape p closing start stop
  else if
    entry.closing = closing
    && String.length entry.name = stop - start
    && same_name p.html start stop entry.name 0
  then entry.shape
  else shape p closing start stop (slot p.tags (i + 1))

let tag p closing start stop =
  if p.words_only then p.count <- p.count + 1
  else begin
    let h = hash p.html start stop (Bool.to_int closing) in
    add p (Token.tag ~index:p.count (shape p closing start stop (slot p.tags h)))
  end

let on_span p span start stop =
  (match span with
  | Lexer.Text_span -> add_text p start stop
  | Lexer.Start_name -> tag p false start stop
  | Lexer.End_name -> tag p true start stop
  | Lexer.Raw_span | Lexer.Comment_span | Lexer.Doctype_span -> ());
  p

let tokenize html =
  let page =
    {
      html;
      words_only = false;
      count = 0;
      (* Pages run about 5.5 bytes per token; [add] doubles the array for
         denser ones. *)
      tokens = Array.make ((String.length html / 4) + 16) (Token.word ~index:0 "");
      tags = Array.make 64 no_tag;
      tag_count = 0;
      words = [||];
      indices = [||];
      kept = 0;
    }
  in
  let page = Lexer.scan on_span page html in
  Array.sub page.tokens 0 page.count

type word_scan = {
  words : string array;
  indices : int array;
  token_count : int;
}

let scan_words html =
  let size = (String.length html / 16) + 8 in
  let page =
    {
      html;
      words_only = true;
      count = 0;
      tokens = [||];
      tags = [||];
      tag_count = 0;
      (* [keep] doubles these for pages denser in words. *)
      words = Array.make size "";
      indices = Array.make size 0;
      kept = 0;
    }
  in
  let page = Lexer.scan on_span page html in
  {
    words = Array.sub page.words 0 page.kept;
    indices = Array.sub page.indices 0 page.kept;
    token_count = page.count;
  }

let searchable token = Token.is_word token && not (Token.is_separator token)

let word_scan_of_tokens tokens =
  let kept =
    Array.fold_left
      (fun n token -> if searchable token then n + 1 else n)
      0 tokens
  in
  let words = Array.make kept "" and indices = Array.make kept 0 in
  let next = ref 0 in
  Array.iter
    (fun (token : Token.t) ->
      if searchable token then begin
        words.(!next) <- token.Token.text;
        indices.(!next) <- token.Token.index;
        incr next
      end)
    tokens;
  { words; indices; token_count = Array.length tokens }

let words stream =
  Array.to_list stream |> List.filter Token.is_word

let visible_text stream =
  words stream
  |> List.map (fun (t : Token.t) -> t.text)
  |> String.concat " "
