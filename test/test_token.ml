open Tabseg_token

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string_list = Alcotest.(check (list string))

let has ty mask = Token_type.mem ty mask
let classify = Token_type.classify_word

(* -------------------------- Token_type -------------------------- *)

let test_classify_capitalized () =
  let mask = classify "John" in
  check_bool "alnum" true (has Token_type.Alphanumeric mask);
  check_bool "alpha" true (has Token_type.Alphabetic mask);
  check_bool "capitalized" true (has Token_type.Capitalized mask);
  check_bool "not numeric" false (has Token_type.Numeric mask);
  check_bool "not allcaps" false (has Token_type.Allcaps mask);
  check_bool "not lowercased" false (has Token_type.Lowercased mask)

let test_classify_lower () =
  let mask = classify "info" in
  check_bool "lowercased" true (has Token_type.Lowercased mask);
  check_bool "not capitalized" false (has Token_type.Capitalized mask)

let test_classify_allcaps () =
  let mask = classify "OH" in
  check_bool "allcaps" true (has Token_type.Allcaps mask);
  check_bool "alpha" true (has Token_type.Alphabetic mask);
  (* A single uppercase letter is both allcaps and capitalized-shaped; the
     paper's types are not mutually exclusive, but with >1 uppercase letters
     we do not call it capitalized. *)
  check_bool "OH not capitalized" false (has Token_type.Capitalized mask)

let test_classify_numeric () =
  let mask = classify "335-5555" in
  check_bool "numeric" true (has Token_type.Numeric mask);
  check_bool "alnum" true (has Token_type.Alphanumeric mask);
  check_bool "not alpha" false (has Token_type.Alphabetic mask);
  let mask = classify "(740)" in
  check_bool "parenthesized numeric" true (has Token_type.Numeric mask)

let test_classify_mixed_alnum () =
  let mask = classify "A123" in
  check_bool "alnum" true (has Token_type.Alphanumeric mask);
  check_bool "not numeric (has letters)" false (has Token_type.Numeric mask);
  check_bool "not alpha (has digits)" false (has Token_type.Alphabetic mask)

let test_classify_punct () =
  let mask = classify "~" in
  check_bool "punct" true (has Token_type.Punctuation mask);
  check_bool "not alnum" false (has Token_type.Alphanumeric mask)

let test_bits_roundtrip () =
  List.iter
    (fun ty ->
      Alcotest.(check bool)
        (Token_type.to_string ty) true
        (Token_type.of_bit (Token_type.to_bit ty) = ty))
    Token_type.all

let test_to_list () =
  let mask = classify "John" in
  let listed = Token_type.to_list mask in
  check_bool "alpha in list" true (List.mem Token_type.Alphabetic listed);
  check_int "mask size" (List.length listed)
    (List.length (List.filter (fun ty -> has ty mask) Token_type.all))

(* ---------------------------- Token ----------------------------- *)

let test_separator_tag () =
  check_bool "tag is separator" true
    (Token.is_separator (Token.start_tag ~index:0 "br"))

let test_separator_special_punct () =
  check_bool "~ is separator" true
    (Token.is_separator (Token.word ~index:0 "~"));
  check_bool "| is separator" true
    (Token.is_separator (Token.word ~index:0 "|"))

let test_separator_benign_punct () =
  (* Characters in .,()- are not separators (they occur inside values). *)
  check_bool "- not separator" false
    (Token.is_separator (Token.word ~index:0 "-"));
  check_bool "( not separator" false
    (Token.is_separator (Token.word ~index:0 "("));
  check_bool "word not separator" false
    (Token.is_separator (Token.word ~index:0 "John"))

let test_template_key () =
  check_bool "start tag key" true
    (Token.template_key (Token.start_tag ~index:3 "td") = "<td>");
  check_bool "end tag key" true
    (Token.template_key (Token.end_tag ~index:4 "td") = "</td>");
  check_bool "word key" true
    (Token.template_key (Token.word ~index:5 "Results") = "Results");
  check_bool "tags with different attrs equal" true
    (Token.equal_for_template
       (Token.start_tag ~index:0 "a")
       (Token.start_tag ~index:9 "a"))

(* --------------------------- Tokenizer --------------------------- *)

let texts stream =
  List.map (fun (t : Token.t) -> t.Token.text) (Tokenizer.words stream)

let test_tokenize_basic () =
  let stream = Tokenizer.tokenize "<b>John Smith</b> (740) 335-5555" in
  check_string_list "words" [ "John"; "Smith"; "(740)"; "335-5555" ]
    (texts stream);
  check_int "token count (2 tags + 4 words)" 6 (Array.length stream)

let test_tokenize_special_punct_split () =
  (* Special punctuation splits even without whitespace. *)
  let stream = Tokenizer.tokenize "a~b" in
  check_string_list "split on tilde" [ "a"; "~"; "b" ] (texts stream)

let test_tokenize_entities () =
  let stream = Tokenizer.tokenize "Smith &amp; Sons" in
  check_string_list "entity decoded then split" [ "Smith"; "&"; "Sons" ]
    (texts stream)

let test_tokenize_nbsp_is_whitespace () =
  let stream = Tokenizer.tokenize "New&nbsp;Holland" in
  check_string_list "nbsp separates words" [ "New"; "Holland" ] (texts stream)

let test_tokenize_skips_script () =
  let stream = Tokenizer.tokenize "<script>var x = 1;</script>visible" in
  check_string_list "script invisible" [ "visible" ] (texts stream)

let test_tokenize_skips_comment () =
  let stream = Tokenizer.tokenize "<!-- hidden words -->visible" in
  check_string_list "comment invisible" [ "visible" ] (texts stream)

let test_tokenize_indices_consecutive () =
  let stream = Tokenizer.tokenize "<p>a b</p><p>c</p>" in
  Array.iteri
    (fun i (t : Token.t) -> check_int "index" i t.Token.index)
    stream

let test_visible_text () =
  let stream = Tokenizer.tokenize "<div>New   Holland<br>OH</div>" in
  Alcotest.(check string) "visible" "New Holland OH"
    (Tokenizer.visible_text stream)

(* Property: tokenizing any ASCII text (no angle brackets) yields words
   whose concatenation contains every alphanumeric character of the
   input. *)
let prop_no_alnum_lost =
  QCheck.Test.make ~name:"tokenizer loses no alphanumeric characters"
    ~count:200
    QCheck.(string_of_size (Gen.int_range 0 60))
    (fun s ->
      let s = String.map (fun c -> if c = '<' || c = '>' then ' ' else c) s in
      let keep_alnum text =
        String.to_seq text
        |> Seq.filter (fun c ->
               (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
               || (c >= '0' && c <= '9'))
        |> String.of_seq
      in
      let words = texts (Tokenizer.tokenize s) in
      keep_alnum (String.concat "" words) = keep_alnum s)

let prop_classify_types_consistent =
  QCheck.Test.make ~name:"numeric and alphabetic are mutually exclusive"
    ~count:500
    QCheck.(string_of_size (Gen.int_range 1 12))
    (fun s ->
      let mask = classify s in
      not (has Token_type.Numeric mask && has Token_type.Alphabetic mask))

(* ---------------------------- Allocation ---------------------------- *)

(* Minor words allocated by [f x]; [Gc.minor_words] repeats exactly from
   run to run, so these bounds hold on any host. *)
let minor_words f x =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f x));
  Gc.minor_words () -. before

let table4_pages () =
  List.concat_map
    (fun site ->
      (Tabseg_sitegen.Sites.generate site).Tabseg_sitegen.Sites.pages
      |> List.concat_map (fun (page : Tabseg_sitegen.Sites.page) ->
             page.Tabseg_sitegen.Sites.list_html
             :: page.Tabseg_sitegen.Sites.detail_htmls))
    Tabseg_sitegen.Sites.all

(* The token path's allocation: each tag's text and kind are made once per
   page, text runs are split in place and one-byte words share their
   text, so the 333 Table 4 pages cost at most 3 minor words per input
   byte (the former event-list tokenizer allocated 11.0). *)
let test_tokenize_allocation () =
  let pages = table4_pages () in
  let bytes = List.fold_left (fun acc page -> acc + String.length page) 0 pages in
  let words =
    List.fold_left (fun acc page -> acc +. minor_words Tokenizer.tokenize page) 0. pages
  in
  let per_byte = words /. float_of_int bytes in
  if per_byte > 3. then
    Alcotest.failf "tokenize allocates %.2f minor words per byte (bound 3)" per_byte

let table4_detail_pages () =
  List.concat_map
    (fun site ->
      (Tabseg_sitegen.Sites.generate site).Tabseg_sitegen.Sites.pages
      |> List.concat_map (fun (page : Tabseg_sitegen.Sites.page) ->
             page.Tabseg_sitegen.Sites.detail_htmls))
    Tabseg_sitegen.Sites.all

(* The detail-page path: the word scan makes no token, tests each word in
   place and copies only the words it keeps, so the 309 Table 4 detail
   pages cost at most 1 minor word per byte (0.49 when it was written;
   [tokenize] then [Matching.index_detail] allocated 3.9). *)
let test_scan_allocation () =
  let pages = table4_detail_pages () in
  let bytes = List.fold_left (fun acc page -> acc + String.length page) 0 pages in
  let words =
    List.fold_left (fun acc page -> acc +. minor_words Tokenizer.scan_words page) 0. pages
  in
  let per_byte = words /. float_of_int bytes in
  if per_byte > 1. then
    Alcotest.failf "scan_words allocates %.2f minor words per byte (bound 1)" per_byte

(* A 100 KB inline script and a style sheet: finding where a raw body ends
   compares in place, so neither entry point allocates per body byte.
   ([Lexer.lex]'s [Text] event still copies each body; at these sizes the
   copy goes straight to the major heap, which minor words do not count.) *)
let test_raw_bodies_allocate_nothing () =
  let script =
    String.concat "" (List.init 2500 (fun i ->
        Printf.sprintf "if (a%d < b) { s = '</scri' + 'pt>'; }\n" (i mod 10)))
  in
  let style = String.concat "" (List.init 500 (fun _ -> "td < tr { color: red }\n")) in
  let page =
    "<p>before</p><SCRIPT type=\"text/javascript\">" ^ script
    ^ "</script ><style>" ^ style ^ "</STYLE><p>after</p>"
  in
  let body = String.length script + String.length style in
  List.iter
    (fun (name, words) ->
      let per_byte = words /. float_of_int body in
      if per_byte >= 0.1 then
        Alcotest.failf "%s allocates %.3f minor words per body byte" name per_byte)
    [
      ("Lexer.lex", minor_words Tabseg_html.Lexer.lex page);
      ("Tokenizer.tokenize", minor_words Tokenizer.tokenize page);
    ];
  check_string_list "only the visible words" [ "before"; "after" ]
    (texts (Tokenizer.tokenize page))

let () =
  Alcotest.run "tabseg_token"
    [
      ( "token_type",
        [
          Alcotest.test_case "capitalized" `Quick test_classify_capitalized;
          Alcotest.test_case "lowercased" `Quick test_classify_lower;
          Alcotest.test_case "allcaps" `Quick test_classify_allcaps;
          Alcotest.test_case "numeric" `Quick test_classify_numeric;
          Alcotest.test_case "mixed alphanumeric" `Quick
            test_classify_mixed_alnum;
          Alcotest.test_case "punctuation" `Quick test_classify_punct;
          Alcotest.test_case "bit roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "to_list" `Quick test_to_list;
        ] );
      ( "token",
        [
          Alcotest.test_case "tag separator" `Quick test_separator_tag;
          Alcotest.test_case "special punctuation separator" `Quick
            test_separator_special_punct;
          Alcotest.test_case "benign punctuation" `Quick
            test_separator_benign_punct;
          Alcotest.test_case "template key" `Quick test_template_key;
        ] );
      ( "tokenizer",
        [
          Alcotest.test_case "basic" `Quick test_tokenize_basic;
          Alcotest.test_case "special punctuation splits" `Quick
            test_tokenize_special_punct_split;
          Alcotest.test_case "entities" `Quick test_tokenize_entities;
          Alcotest.test_case "nbsp is whitespace" `Quick
            test_tokenize_nbsp_is_whitespace;
          Alcotest.test_case "skips script" `Quick test_tokenize_skips_script;
          Alcotest.test_case "skips comments" `Quick
            test_tokenize_skips_comment;
          Alcotest.test_case "indices consecutive" `Quick
            test_tokenize_indices_consecutive;
          Alcotest.test_case "visible text" `Quick test_visible_text;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_no_alnum_lost;
          QCheck_alcotest.to_alcotest prop_classify_types_consistent;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "Table 4 pages: at most 3 minor words per byte"
            `Quick test_tokenize_allocation;
          Alcotest.test_case "script and style bodies allocate nothing" `Quick
            test_raw_bodies_allocate_nothing;
          Alcotest.test_case "Table 4 detail pages: the word scan" `Quick
            test_scan_allocation;
        ] );
    ]
