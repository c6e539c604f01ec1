(* Bit-identity golden test for the token path: the token arrays (text,
   kind, types, index) of every Table 4 list and detail page and of a
   stream-style corpus sample must keep the digests recorded here, and on
   generated tag soup [Tokenizer.tokenize] and [Lexer.lex] must equal the
   former implementations kept verbatim below. The digests were produced
   by that former tokenizer (an event list from the former lexer, entity
   decoding and a buffered split of every text run), so they pin any
   faster implementation to the same tokens. *)

open Tabseg_token
module Lexer = Tabseg_html.Lexer
module Sites = Tabseg_sitegen.Sites
module Family = Tabseg_corpus.Family

(* The former lexer, verbatim. *)
module Former_lexer = struct
  type attribute = { name : string; value : string option }

  type event =
    | Start_tag of { name : string; attributes : attribute list;
                     self_closing : bool }
    | End_tag of string
    | Text of string
    | Comment of string
    | Doctype of string

  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

  let is_tag_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '-' || c = ':'

  let lowercase = String.lowercase_ascii

  (* Scan attributes between index [i] and the closing '>' at index [stop]. *)
  let parse_attributes s i stop =
    let rec skip_space j = if j < stop && is_space s.[j] then skip_space (j + 1) else j in
    let rec loop acc j =
      let j = skip_space j in
      if j >= stop then (List.rev acc, false)
      else if s.[j] = '/' && j = stop - 1 then (List.rev acc, true)
      else begin
        (* attribute name: up to '=', space or end *)
        let name_end =
          let rec scan k =
            if k < stop && not (is_space s.[k]) && s.[k] <> '=' && s.[k] <> '/'
            then scan (k + 1)
            else k
          in
          scan j
        in
        if name_end = j then loop acc (j + 1)
        else
          let name = lowercase (String.sub s j (name_end - j)) in
          let k = skip_space name_end in
          if k < stop && s.[k] = '=' then begin
            let k = skip_space (k + 1) in
            if k < stop && (s.[k] = '"' || s.[k] = '\'') then begin
              let quote = s.[k] in
              let value_end =
                let rec scan m = if m < stop && s.[m] <> quote then scan (m + 1) else m in
                scan (k + 1)
              in
              let value = String.sub s (k + 1) (value_end - k - 1) in
              loop ({ name; value = Some value } :: acc)
                (if value_end < stop then value_end + 1 else value_end)
            end
            else begin
              let value_end =
                let rec scan m =
                  if m < stop && not (is_space s.[m]) then scan (m + 1) else m
                in
                scan k
              in
              let value = String.sub s k (value_end - k) in
              loop ({ name; value = Some value } :: acc) value_end
            end
          end
          else loop ({ name; value = None } :: acc) k
      end
    in
    loop [] i

  (* Find the matching end tag </name> for a raw-text element starting at [i];
     return (content_end, next_index_after_close). *)
  let find_raw_end s i name =
    let n = String.length s in
    let needle = "</" ^ name in
    let needle_len = String.length needle in
    let rec search j =
      if j + needle_len > n then (n, n)
      else if
        lowercase (String.sub s j needle_len) = needle
        && (j + needle_len >= n
            || is_space s.[j + needle_len]
            || s.[j + needle_len] = '>')
      then
        let close =
          match String.index_from_opt s (j + needle_len) '>' with
          | Some k -> k + 1
          | None -> n
        in
        (j, close)
      else search (j + 1)
    in
    search i

  let lex s =
    let n = String.length s in
    let events = ref [] in
    let emit e = events := e :: !events in
    let text_buffer = Buffer.create 256 in
    let flush_text () =
      if Buffer.length text_buffer > 0 then begin
        emit (Text (Buffer.contents text_buffer));
        Buffer.clear text_buffer
      end
    in
    let rec loop i =
      if i >= n then flush_text ()
      else if s.[i] <> '<' then begin
        Buffer.add_char text_buffer s.[i];
        loop (i + 1)
      end
      else if i + 3 < n && String.sub s i 4 = "<!--" then begin
        flush_text ();
        let stop =
          let rec search j =
            if j + 2 >= n then n
            else if s.[j] = '-' && s.[j + 1] = '-' && s.[j + 2] = '>' then j
            else search (j + 1)
          in
          search (i + 4)
        in
        emit (Comment (String.sub s (i + 4) (min stop n - (i + 4))));
        loop (min n (stop + 3))
      end
      else if i + 1 < n && s.[i + 1] = '!' then begin
        flush_text ();
        let stop =
          match String.index_from_opt s i '>' with Some k -> k | None -> n
        in
        emit (Doctype (String.sub s (i + 2) (stop - i - 2)));
        loop (min n (stop + 1))
      end
      else if i + 1 < n && s.[i + 1] = '/' then begin
        (* end tag *)
        let name_start = i + 2 in
        let name_end =
          let rec scan k =
            if k < n && is_tag_name_char s.[k] then scan (k + 1) else k
          in
          scan name_start
        in
        if name_end = name_start then begin
          Buffer.add_char text_buffer '<';
          loop (i + 1)
        end
        else begin
          flush_text ();
          let stop =
            match String.index_from_opt s name_end '>' with
            | Some k -> k
            | None -> n
          in
          emit (End_tag (lowercase (String.sub s name_start (name_end - name_start))));
          loop (min n (stop + 1))
        end
      end
      else if i + 1 < n && is_tag_name_char s.[i + 1] then begin
        let name_start = i + 1 in
        let name_end =
          let rec scan k =
            if k < n && is_tag_name_char s.[k] then scan (k + 1) else k
          in
          scan name_start
        in
        let stop =
          match String.index_from_opt s name_end '>' with
          | Some k -> k
          | None -> n
        in
        flush_text ();
        let name = lowercase (String.sub s name_start (name_end - name_start)) in
        let attributes, self_closing = parse_attributes s name_end stop in
        emit (Start_tag { name; attributes; self_closing });
        let next = min n (stop + 1) in
        if (name = "script" || name = "style") && not self_closing then begin
          let content_end, after = find_raw_end s next name in
          if content_end > next then
            emit (Text (String.sub s next (content_end - next)));
          emit (End_tag name);
          loop after
        end
        else loop next
      end
      else begin
        (* lone '<' that starts nothing recognizable: literal text *)
        Buffer.add_char text_buffer '<';
        loop (i + 1)
      end
    in
    loop 0;
    List.rev !events
end

(* The former tokenizer, verbatim except that it reads the former lexer
   above instead of [Tabseg_html.Lexer]. *)
module Former_tokenizer = struct
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

  let is_special_punctuation c =
    (* A separator character: printable, not alphanumeric, not whitespace and
       not in the benign set [.,()-]. *)
    let benign = [ '.'; ','; '('; ')'; '-' ] in
    let alnum =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    in
    (not alnum) && (not (is_space c)) && not (List.mem c benign)
    && Char.code c < 128

  (* UTF-8 non-breaking space (the expansion of [&nbsp;]) acts as ordinary
     whitespace for tokenization, as it does visually. *)
  let normalize_spaces text =
    if not (String.contains text '\xc2') then text
    else begin
      let buffer = Buffer.create (String.length text) in
      let n = String.length text in
      let rec loop i =
        if i >= n then ()
        else if i + 1 < n && text.[i] = '\xc2' && text.[i + 1] = '\xa0' then begin
          Buffer.add_char buffer ' ';
          loop (i + 2)
        end
        else begin
          Buffer.add_char buffer text.[i];
          loop (i + 1)
        end
      in
      loop 0;
      Buffer.contents buffer
    end

  (* Split a text run into word chunks: whitespace separates; each special
     punctuation character becomes its own chunk. *)
  let split_text text =
    let text = normalize_spaces text in
    let chunks = ref [] in
    let buffer = Buffer.create 16 in
    let flush () =
      if Buffer.length buffer > 0 then begin
        chunks := Buffer.contents buffer :: !chunks;
        Buffer.clear buffer
      end
    in
    String.iter
      (fun c ->
        if is_space c then flush ()
        else if is_special_punctuation c then begin
          flush ();
          chunks := String.make 1 c :: !chunks
        end
        else Buffer.add_char buffer c)
      text;
    flush ();
    List.rev !chunks

  let tokenize html =
    let events = Former_lexer.lex html in
    let tokens = ref [] in
    let next_index = ref 0 in
    let emit make =
      tokens := make ~index:!next_index :: !tokens;
      incr next_index
    in
    let in_invisible = ref 0 in
    let handle = function
      | Former_lexer.Comment _ | Former_lexer.Doctype _ -> ()
      | Former_lexer.Start_tag { name; self_closing; _ } ->
        emit (fun ~index -> Token.start_tag ~index name);
        if (name = "script" || name = "style") && not self_closing then
          incr in_invisible
      | Former_lexer.End_tag name ->
        emit (fun ~index -> Token.end_tag ~index name);
        if (name = "script" || name = "style") && !in_invisible > 0 then
          decr in_invisible
      | Former_lexer.Text text ->
        if !in_invisible = 0 then
          let decoded = Tabseg_html.Entity.decode text in
          List.iter
            (fun chunk -> emit (fun ~index -> Token.word ~index chunk))
            (split_text decoded)
    in
    List.iter handle events;
    Array.of_list (List.rev !tokens)
end

(* ------------------------------ inputs ------------------------------ *)

(* Every Table 4 list page with its detail pages. *)
let table4 () =
  List.concat_map
    (fun site ->
      let generated = Sites.generate site in
      List.mapi
        (fun page_index (page : Sites.page) ->
          ( Printf.sprintf "%s/%d" site.Sites.name page_index,
            page.Sites.list_html :: page.Sites.detail_htmls ))
        generated.Sites.pages)
    Sites.all

(* The first three list pages of twelve corpus sites shaped like the
   stream benchmark's (1,000-4,000 rows), each with its detail pages. *)
let corpus_pages () =
  let specs =
    Family.sample
      { Family.default_params with
        Family.sites = 12; seed = 17; min_rows = 1_000; max_rows = 4_000 }
  in
  List.concat_map
    (fun spec ->
      let next = Family.page_source ~max_pages:3 spec in
      List.filter_map
        (fun position ->
          next ()
          |> Option.map (fun (page : Family.page) ->
                 ( Printf.sprintf "%s/%d" spec.Family.sp_name position,
                   page.Family.list_html :: page.Family.detail_htmls )))
        [ 0; 1; 2 ])
    specs

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let serialize b (tokens : Token.t array) =
  Array.iter
    (fun (t : Token.t) ->
      let kind =
        match t.Token.kind with
        | Token.Start_tag name -> "s:" ^ name
        | Token.End_tag name -> "e:" ^ name
        | Token.Word -> "w"
      in
      Printf.bprintf b "%d %s %d %S\n" t.Token.index kind t.Token.types
        t.Token.text)
    tokens;
  Buffer.add_char b '\n'

let pages_digest tokenize pages =
  let b = Buffer.create 65536 in
  List.iter (fun html -> serialize b (tokenize html)) pages;
  digest (Buffer.contents b)

(* (list page, digest of its and its detail pages' token arrays) *)
let expected_table4 =
  [
    ("AmazonBooks/0", "c0f8ad81da88");
    ("AmazonBooks/1", "e5a482b9463d");
    ("BNBooks/0", "a96d66c6ae0e");
    ("BNBooks/1", "3e81b71fafb1");
    ("AlleghenyCounty/0", "720a2154cedc");
    ("AlleghenyCounty/1", "f77a57875dc6");
    ("ButlerCounty/0", "648e9784b90a");
    ("ButlerCounty/1", "159a32641f10");
    ("LeeCounty/0", "08792b657e20");
    ("LeeCounty/1", "9d7f89f3f208");
    ("MichiganCorrections/0", "2041b0af9271");
    ("MichiganCorrections/1", "c3eec884ee19");
    ("MinnesotaCorrections/0", "1c68a7b25dab");
    ("MinnesotaCorrections/1", "4d52d3b9a7f7");
    ("OhioCorrections/0", "3c007d412d9e");
    ("OhioCorrections/1", "05164eea2ae9");
    ("Canada411/0", "5c9ee43a1b1b");
    ("Canada411/1", "7342afa6a416");
    ("SprintCanada/0", "8717a260e2f5");
    ("SprintCanada/1", "6e5050eff8cc");
    ("YahooPeople/0", "b6b46ea4a2b0");
    ("YahooPeople/1", "cbe0c647c98f");
    ("SuperPages/0", "40b4b2991bea");
    ("SuperPages/1", "975a71b24ec9")
  ]

let expected_corpus =
  [
    ("corpus00000/0", "56e617d1c5aa");
    ("corpus00000/1", "4dc0bdda7ee3");
    ("corpus00000/2", "8fbe4e9144d2");
    ("corpus00001/0", "0b678a32c777");
    ("corpus00001/1", "3efe0dbe3307");
    ("corpus00001/2", "cd5c409047bf");
    ("corpus00002/0", "e0f9f0902c54");
    ("corpus00002/1", "cbe9d87fe471");
    ("corpus00002/2", "ab5a19894dc8");
    ("corpus00003/0", "f459574ca50a");
    ("corpus00003/1", "8b3d141357eb");
    ("corpus00003/2", "bc29c3efafcf");
    ("corpus00004/0", "0fb37ad51309");
    ("corpus00004/1", "8359f98d832a");
    ("corpus00004/2", "d039033247fd");
    ("corpus00005/0", "8e4f2d88babd");
    ("corpus00005/1", "18fcbcac75c2");
    ("corpus00005/2", "90f8055e6140");
    ("corpus00006/0", "ceb63a966d6a");
    ("corpus00006/1", "9c575ce85596");
    ("corpus00006/2", "3883092d81e1");
    ("corpus00007/0", "464f68b34fdf");
    ("corpus00007/1", "ef65e733cb0a");
    ("corpus00007/2", "57705982c2ad");
    ("corpus00008/0", "cabcbdb3c560");
    ("corpus00008/1", "92ecf8facbba");
    ("corpus00008/2", "c3627ef01cae");
    ("corpus00009/0", "1e9564256dc2");
    ("corpus00009/1", "70dfcc4e978c");
    ("corpus00009/2", "110f13a83c0f");
    ("corpus00010/0", "e608e7bf2593");
    ("corpus00010/1", "2940a48213f5");
    ("corpus00010/2", "eda52ff78d1a");
    ("corpus00011/0", "b2bb5df70f7b");
    ("corpus00011/1", "a2b1a486e222");
    ("corpus00011/2", "72d1c426d0e3")
  ]

let check_golden inputs expected () =
  let inputs = inputs () in
  Alcotest.(check int) "pinned entries" (List.length expected)
    (List.length inputs);
  List.iter
    (fun (name, pages) ->
      match List.assoc_opt name expected with
      | None -> Alcotest.failf "no golden digest for %s" name
      | Some want ->
        Alcotest.(check string) name want (pages_digest Tokenizer.tokenize pages))
    inputs

let test_table4_page_count () =
  Alcotest.(check int) "Table 4 list and detail pages" 333
    (List.fold_left (fun acc (_, pages) -> acc + List.length pages) 0 (table4 ()))

(* ------------------------------ word scan ---------------------------- *)

(* The separator rule before [Token.separator_word], read from a token's
   pinned types and text. *)
let former_separator (t : Token.t) =
  let rec all_benign text i =
    i >= String.length text
    || Lexer.is_benign_punctuation text.[i] && all_benign text (i + 1)
  in
  Token.is_tag t
  || Token_type.mem Token_type.Punctuation t.Token.types && not (all_benign t.Token.text 0)

(* What matching reads of a page, from its tokens: the non-separator
   words with their token indices, and the token count. *)
let searchable_words html =
  let tokens = Tokenizer.tokenize html in
  let kept = List.filter (fun t -> not (former_separator t)) (Array.to_list tokens) in
  ( List.map (fun (t : Token.t) -> (t.Token.text, t.Token.index)) kept,
    Array.length tokens )

let scanned_words html =
  let scan = Tokenizer.scan_words html in
  ( Array.to_list
      (Array.map2 (fun word index -> (word, index)) scan.Tokenizer.words
         scan.Tokenizer.indices),
    scan.Tokenizer.token_count )

let scan_matches html = scanned_words html = searchable_words html

let check_scan inputs () =
  List.iter
    (fun (name, pages) ->
      List.iteri
        (fun i page ->
          if not (scan_matches page) then
            Alcotest.failf "%s page %d: the word scan differs from tokenize's words"
              name i)
        pages)
    (inputs ())

(* An entity sends the run back to be decoded and split again; the words
   the first try kept must go with it. *)
let test_scan_entity_run () =
  let html = "<p>John Smith &amp; Co</p>" in
  Alcotest.(check (pair (list (pair string int)) int))
    "John@1 Smith@2 Co@4 of 6 tokens"
    ([ ("John", 1); ("Smith", 2); ("Co", 4) ], 6)
    (scanned_words html);
  Alcotest.(check bool) "equals tokenize's words" true (scan_matches html)

(* ---------------------------- differentials -------------------------- *)

let names =
  [ "script"; "SCRIPT"; "Script"; "style"; "STYLE"; "b"; "td"; "TR"; "a";
    "br"; "x-y"; "h1"; "ns:tag"; "p"; "scriptx"; "xcript"; "scripx"; "styl";
    "xtyle" ]

let attribute =
  QCheck.Gen.oneofl
    [ " a"; " href=\"/x/y\""; " a='/'"; " a=/"; " a=b/"; " /"; " ="; " a = 'x>y'";
      " A=\"&amp;\""; " c=d e"; " src=x/"; "/"; " a=\"/\" "; "  "; " x='" ]

let start_tag =
  QCheck.Gen.(
    map3
      (fun name attributes close -> "<" ^ name ^ String.concat "" attributes ^ close)
      (oneofl names)
      (list_size (int_range 0 3) attribute)
      (oneofl [ ">"; "/>"; " />"; ""; " >"; "/" ]))

let end_tag =
  QCheck.Gen.(
    map2 (fun name close -> "</" ^ name ^ close) (oneofl names)
      (oneofl [ ">"; " >"; ""; " x>"; "\t>"; "x>" ]))

(* Every rule edge of the scanner and the tokenizer, as literal pieces. *)
let edges =
  [ "<SCRIPT src=x/>"; "<script a='/'>"; "<script a=\"/\" />"; "<style/>";
    "</script>"; "</SCRIPT >"; "</scriptx>"; "</script"; "</style>";
    "</STYLE\n>"; "<!-->"; "<!--"; "-->"; "<!---->"; "<!-- c -->"; "--";
    "<!doctype html>"; "<!DOCTYPE"; "<!"; "<!x"; "</ >"; "</"; "<"; "< ";
    "<<"; ">"; "&nbsp;"; "&#160;"; "&#xA0;"; "&#xa0"; "&amp;"; "&lt;";
    "&gt;"; "&bogus;"; "&amp"; "&#"; "&#x;"; "&"; "&#0;"; "&#32;"; "&#9;";
    "&#12;"; "&#194;"; "&eacute;"; "\xc2\xa0"; "\xc2"; "\xa0"; "\xc3\xa9";
    " "; "\t"; "\n"; "\r"; "\012"; "~"; "|"; "."; ","; "("; ")"; "-"; ";";
    ":"; "'"; "\""; "=" ]

let word =
  QCheck.Gen.(
    oneofl
      [ "John"; "SMITH"; "info"; "335-5555"; "(740)"; "A123"; "x"; "New";
        "Holland"; "var"; "a.b"; "e-mail"; "1,200" ])

let fragment =
  QCheck.Gen.(
    frequency
      [
        (3, start_tag);
        (2, end_tag);
        (6, oneofl edges);
        (4, word);
        (1, string_size ~gen:char (int_range 0 8));
      ])

let soup =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(map (String.concat "") (list_size (int_range 0 40) fragment))

let random_bytes =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size ~gen:char (int_range 0 64))

let same_tokens a b =
  let view (t : Token.t) = (t.Token.text, t.Token.kind, t.Token.types, t.Token.index) in
  Array.map view a = Array.map view b

(* The current lexer's events in the former lexer's type. *)
let former_event : Lexer.event -> Former_lexer.event = function
  | Lexer.Start_tag { name; attributes; self_closing } ->
    Former_lexer.Start_tag
      {
        name;
        attributes =
          List.map
            (fun ({ Lexer.name; value } : Lexer.attribute) ->
              { Former_lexer.name; value })
            attributes;
        self_closing;
      }
  | Lexer.End_tag name -> Former_lexer.End_tag name
  | Lexer.Text text -> Former_lexer.Text text
  | Lexer.Comment text -> Former_lexer.Comment text
  | Lexer.Doctype text -> Former_lexer.Doctype text

let tokenize_matches html =
  same_tokens (Tokenizer.tokenize html) (Former_tokenizer.tokenize html)

let lex_matches html =
  List.map former_event (Lexer.lex html) = Former_lexer.lex html

let differential name arbitrary property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:10_000 arbitrary property)

let () =
  Alcotest.run "tabseg_token_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "Table 4 page count" `Quick test_table4_page_count;
          Alcotest.test_case "Table 4 token arrays pinned" `Quick
            (check_golden table4 expected_table4);
          Alcotest.test_case "corpus token arrays pinned" `Quick
            (check_golden corpus_pages expected_corpus);
        ] );
      ( "word scan",
        [
          Alcotest.test_case "Table 4 pages: tokenize's words" `Quick
            (check_scan table4);
          Alcotest.test_case "corpus pages: tokenize's words" `Quick
            (check_scan corpus_pages);
          Alcotest.test_case "an entity run is split once" `Quick
            test_scan_entity_run;
        ] );
      ( "differential",
        [
          differential "tokenize = former tokenizer on tag soup" soup
            tokenize_matches;
          differential "lex = former lexer on tag soup" soup lex_matches;
          differential "tokenize = former tokenizer on random bytes"
            random_bytes tokenize_matches;
          differential "lex = former lexer on random bytes" random_bytes
            lex_matches;
          differential "word scan = tokenize's words on tag soup" soup
            scan_matches;
          differential "word scan = tokenize's words on random bytes"
            random_bytes scan_matches;
        ] );
    ]
