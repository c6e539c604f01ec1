open Tabseg_token
open Tabseg_extract

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

let tokens html = Tokenizer.tokenize html

let extract_texts extracts =
  List.map (fun (e : Extract.t) -> e.Extract.text) extracts

(* ----------------------------- Extract ---------------------------- *)

let test_extracts_split_by_tags () =
  let extracts = Extract.of_tokens (tokens "<td>John Smith</td><td>Ohio</td>") in
  check_strings "two extracts" [ "John Smith"; "Ohio" ]
    (extract_texts extracts)

let test_extracts_split_by_special_punct () =
  let extracts = Extract.of_tokens (tokens "<p>New Holland ~ (740) 335-5555</p>") in
  check_strings "tilde splits" [ "New Holland"; "(740) 335-5555" ]
    (extract_texts extracts)

let test_extracts_keep_benign_punct () =
  let extracts = Extract.of_tokens (tokens "<p>Findlay, OH</p>") in
  check_strings "comma kept inside" [ "Findlay, OH" ] (extract_texts extracts)

let test_extract_ids_sequential () =
  let extracts = Extract.of_tokens (tokens "<p>a</p><p>b</p><p>c</p>") in
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ]
    (List.map (fun (e : Extract.t) -> e.Extract.id) extracts)

let test_extract_indices () =
  let extracts = Extract.of_tokens (tokens "<p>one two</p>") in
  match extracts with
  | [ e ] ->
    check_int "start" 1 e.Extract.start_index;
    check_int "stop" 3 e.Extract.stop_index
  | _ -> Alcotest.fail "expected one extract"

let test_extract_types_union () =
  let extracts = Extract.of_tokens (tokens "<p>John 42</p>") in
  match extracts with
  | [ e ] ->
    check_bool "union has alpha" true
      (Token_type.mem Token_type.Alphabetic e.Extract.types);
    check_bool "union has numeric" true
      (Token_type.mem Token_type.Numeric e.Extract.types);
    check_bool "first word alpha only" false
      (Token_type.mem Token_type.Numeric e.Extract.first_types)
  | _ -> Alcotest.fail "expected one extract"

let test_empty_page () =
  check_int "no extracts" 0 (List.length (Extract.of_tokens (tokens "")))

(* ----------------------------- Matching --------------------------- *)

(* Detail pages are matched by [Observation.add_detail] over the word scan;
   [Matching.contains] serves the all-list-pages filter. Each case checks
   both. *)

(* The (page, token position) observations of each extract of [list_page]
   on [details], through the one-scan builder, in stream order. *)
let observations list_page details =
  let b = Observation.start (Extract.of_tokens (tokens list_page)) in
  List.iter (fun html -> Observation.add_detail b (Tokenizer.scan_words html)) details;
  Array.to_list (Observation.finish b).Observation.entries
  |> List.map (fun e -> (e.Observation.extract.Extract.text, e.Observation.positions))

let index html = Matching.index_detail (tokens html)

let test_match_simple () =
  let idx = index "<p>John Smith lives here</p>" in
  check_bool "found" true (Matching.contains idx [ "John"; "Smith" ]);
  check_bool "not found" false (Matching.contains idx [ "Jane"; "Smith" ]);
  Alcotest.(check (list (pair string (list (pair int int)))))
    "John Smith observed, Jane Smith not"
    [ ("John Smith", [ (0, 1) ]) ]
    (observations "<td>John Smith</td><td>Jane Smith</td>"
       [ "<p>John Smith lives here</p>" ])

let test_match_ignores_separators () =
  (* Paper footnote 1: "FirstName LastName" matches
     "FirstName <br> LastName". *)
  let idx = index "<p>John<br>Smith</p>" in
  check_bool "tag-separated match" true
    (Matching.contains idx [ "John"; "Smith" ]);
  let idx = index "<p>John ~ Smith</p>" in
  check_bool "punctuation-separated match" true
    (Matching.contains idx [ "John"; "Smith" ]);
  Alcotest.(check (list (pair string (list (pair int int)))))
    "tag and punctuation skipped by the scan"
    [ ("John Smith", [ (0, 1); (1, 1) ]) ]
    (observations "<td>John Smith</td>"
       [ "<p>John<br>Smith</p>"; "<p>John ~ Smith</p>"; "<p>nobody</p>" ])

let test_match_case_sensitive () =
  let idx = index "<p>JOHN SMITH</p>" in
  check_bool "case mismatch fails" false
    (Matching.contains idx [ "John"; "Smith" ]);
  Alcotest.(check (list (pair string (list (pair int int)))))
    "case mismatch is not observed" []
    (observations "<td>John Smith</td>" [ "<p>JOHN SMITH</p>" ])

let test_match_positions () =
  match observations "<td>a b</td>" [ "<p>a b a b</p>"; "<p>b a b</p>"; "<p>c</p>" ] with
  | [ (_, positions) ] ->
    Alcotest.(check (list (pair int int)))
      "two on page 0, one on page 1, ascending"
      [ (0, 1); (0, 3); (1, 2) ] positions
  | _ -> Alcotest.fail "expected one entry"

let test_match_empty_needle () =
  let idx = index "<p>a</p>" in
  check_bool "empty needle" false (Matching.contains idx []);
  let empty =
    { Extract.id = 0; words = []; text = ""; start_index = 0; stop_index = 0;
      types = 0; first_types = 0 }
  in
  let b = Observation.start [ empty ] in
  Observation.add_detail b (Tokenizer.scan_words "<p>a</p>");
  let observation = Observation.finish b in
  check_int "no words, no observation" 0 (Array.length observation.Observation.entries)

let test_match_partial_overlap () =
  let idx = index "<p>John Smithson</p>" in
  check_bool "no partial word match" false
    (Matching.contains idx [ "John"; "Smith" ]);
  Alcotest.(check (list (pair string (list (pair int int)))))
    "no partial word observed" []
    (observations "<td>John Smith</td><td>Smith</td>" [ "<p>John Smithson</p>" ])

(* ------------------------- the former matcher ----------------------- *)

(* The matcher before extracts were indexed, verbatim: each detail page's
   separator-free words indexed by word, then every extract looked up in
   it. The one-scan builder must give [=]-equal observation tables. *)
module Former = struct
  let rec all_benign text i =
    i >= String.length text
    || Tabseg_html.Lexer.is_benign_punctuation (String.unsafe_get text i)
       && all_benign text (i + 1)

  let is_separator (t : Token.t) =
    match t.Token.kind with
    | Token.Start_tag _ | Token.End_tag _ -> true
    | Token.Word ->
      Token_type.mem Token_type.Punctuation t.Token.types
      && not (all_benign t.Token.text 0)

  type detail_index = {
    words : string array;  (** separator-free word tokens in order *)
    token_indices : int array;  (** original token index of each word *)
    first_word : (string, int list) Hashtbl.t;
        (** word -> positions in [words], ascending *)
  }

  let index_detail stream =
    let words = ref [] and indices = ref [] in
    Array.iter
      (fun (token : Token.t) ->
        if Token.is_word token && not (is_separator token) then begin
          words := token.Token.text :: !words;
          indices := token.Token.index :: !indices
        end)
      stream;
    let words = Array.of_list (List.rev !words) in
    let token_indices = Array.of_list (List.rev !indices) in
    let first_word = Hashtbl.create (Array.length words) in
    for i = Array.length words - 1 downto 0 do
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt first_word words.(i))
      in
      Hashtbl.replace first_word words.(i) (i :: existing)
    done;
    { words; token_indices; first_word }

  let matches_at index position words =
    let n = Array.length index.words in
    let rec check i = function
      | [] -> true
      | word :: rest ->
        i < n && String.equal index.words.(i) word && check (i + 1) rest
    in
    check position words

  let occurrences index words =
    match words with
    | [] -> []
    | first :: _ ->
      let starts =
        Option.value ~default:[] (Hashtbl.find_opt index.first_word first)
      in
      starts
      |> List.filter (fun position -> matches_at index position words)
      |> List.map (fun position -> index.token_indices.(position))

  let contains index words = occurrences index words <> []

  type builder = {
    b_extracts : Extract.t array;
    b_acc : (int * int) list array;  (** per-extract observations, reversed *)
    mutable b_details : int;
  }

  let start extracts =
    let b_extracts = Array.of_list extracts in
    { b_extracts; b_acc = Array.make (Array.length b_extracts) []; b_details = 0 }

  let add_detail b index =
    let page = b.b_details in
    b.b_details <- page + 1;
    Array.iteri
      (fun i (extract : Extract.t) ->
        b.b_acc.(i) <-
          List.rev_append
            (List.map
               (fun pos -> (page, pos))
               (occurrences index extract.Extract.words))
            b.b_acc.(i))
      b.b_extracts

  let finish ?(other_lists = []) b =
    let num_details = b.b_details in
    let on_all_other_lists (extract : Extract.t) =
      other_lists <> []
      && List.for_all
           (fun index -> contains index extract.Extract.words)
           other_lists
    in
    let entries = ref [] and extras = ref [] in
    Array.iteri
      (fun i extract ->
        let positions = List.rev b.b_acc.(i) in
        let pages = List.sort_uniq compare (List.map fst positions) in
        let uninformative =
          pages = []
          || (num_details >= 2 && List.length pages = num_details)
          || on_all_other_lists extract
        in
        if uninformative then extras := extract :: !extras
        else
          entries := { Observation.extract; pages; positions } :: !entries)
      b.b_extracts;
    {
      Observation.entries = Array.of_list (List.rev !entries);
      extras = List.rev !extras;
      num_details;
    }

  let build ?(other_list_pages = []) ~extracts ~details () =
    let b = start extracts in
    List.iter (fun tokens -> add_detail b (index_detail tokens)) details;
    finish ~other_lists:(List.map index_detail other_list_pages) b
end

(* The one-scan table of [extracts] against raw [details], as
   [Pipeline.prepare] and the stream engine build it. *)
let scanned ~others ~extracts details =
  let b = Observation.start extracts in
  List.iter (fun html -> Observation.add_detail b (Tokenizer.scan_words html)) details;
  Observation.finish ~other_lists:(List.map Matching.index_detail others) b

(* The former matcher's table of one input, and [Observation.build]'s
   (tokens) and the scan's, which must equal it. *)
let tables ~list_pages ~extracts ~details =
  let others = List.map tokens (List.tl list_pages) in
  let detail_tokens = List.map tokens details in
  ( Former.build ~other_list_pages:others ~extracts ~details:detail_tokens (),
    [
      Observation.build ~other_list_pages:others ~extracts
        ~details:detail_tokens ();
      scanned ~others ~extracts details;
    ] )

let check_inputs name inputs =
  List.iter
    (fun (label, (input : Tabseg.Pipeline.input)) ->
      let prepared = Tabseg.Pipeline.prepare input in
      let former, others =
        tables ~list_pages:input.Tabseg.Pipeline.list_pages
          ~extracts:(Extract.of_slot prepared.Tabseg.Pipeline.table_slot)
          ~details:input.Tabseg.Pipeline.detail_pages
      in
      if not (List.for_all (( = ) former) (prepared.Tabseg.Pipeline.observation :: others))
      then
        Alcotest.failf
          "%s %s: Pipeline.prepare, Observation.build or the scan differs \
           from the former matcher"
          name label)
    inputs

let table4_inputs () =
  let module Sites = Tabseg_sitegen.Sites in
  List.concat_map
    (fun site ->
      let generated = Sites.generate site in
      List.mapi
        (fun page_index _ ->
          let list_pages, detail_pages =
            Sites.segmentation_input generated ~page_index
          in
          ( Printf.sprintf "%s/%d" site.Sites.name page_index,
            { Tabseg.Pipeline.list_pages; detail_pages } ))
        generated.Sites.pages)
    Sites.all

(* Stream-style units of eight corpus sites: a unit's page, then the
   site's first four list pages without it. *)
let corpus_inputs () =
  let module Family = Tabseg_corpus.Family in
  let specs =
    Family.sample
      { Family.default_params with
        Family.sites = 8; seed = 23; min_rows = 200; max_rows = 800 }
  in
  List.concat_map
    (fun spec ->
      let next = Family.page_source ~max_pages:6 spec in
      let pages = List.filter_map (fun _ -> next ()) (List.init 6 Fun.id) in
      let head =
        List.filteri (fun i _ -> i < 4) pages
        |> List.map (fun (page : Family.page) -> page.Family.list_html)
      in
      List.filter_map
        (fun position ->
          List.nth_opt pages position
          |> Option.map (fun (page : Family.page) ->
                 ( Printf.sprintf "%s/%d" spec.Family.sp_name position,
                   {
                     Tabseg.Pipeline.list_pages =
                       page.Family.list_html
                       :: List.filteri (fun i _ -> i <> position) head;
                     detail_pages = page.Family.detail_htmls;
                   } )))
        [ 0; 5 ])
    specs

let test_former_table4 () = check_inputs "Table 4" (table4_inputs ())
let test_former_corpus () = check_inputs "corpus" (corpus_inputs ())

(* Random tables over a three-word vocabulary, so words repeat and
   overlap ("a b a b"), extracts share first words and many are one word
   long; pages may have no words at all. *)
let random_table =
  let open QCheck.Gen in
  let word = oneofl [ "a"; "b"; "c"; "A" ] in
  let separator =
    oneofl [ " "; " "; " "; "<br>"; "</p><p>"; " ~ "; "|"; " &amp; "; "&nbsp;"; ", "; " - " ]
  in
  let run =
    map2
      (fun first rest -> String.concat "" (first :: List.concat_map (fun (s, w) -> [ s; w ]) rest))
      word
      (list_size (int_range 0 3) (pair separator word))
  in
  let cells = map (fun runs -> String.concat "" (List.map (Printf.sprintf "<td>%s</td>") runs)) in
  let page size = map (Printf.sprintf "<p>%s</p>") (map (String.concat "") (list_size size (oneof [ word; separator ]))) in
  QCheck.make
    ~print:(fun (list_page, others, details) ->
      String.concat "\n" ((list_page :: others) @ ("--" :: details)))
    (triple
       (cells (list_size (int_range 0 8) run))
       (list_size (int_range 0 2) (page (int_range 0 12)))
       (list_size (int_range 0 5) (page (int_range 0 16))))

let prop_scan_equals_former =
  QCheck.Test.make ~name:"one-scan table equals the former matcher's" ~count:2000
    random_table (fun (list_page, others, details) ->
      let former, others =
        tables ~list_pages:(list_page :: others)
          ~extracts:(Extract.of_tokens (tokens list_page)) ~details
      in
      List.for_all (( = ) former) others)

(* ---------------------------- Observation ------------------------- *)

let build ?other extracts details =
  let extracts = Extract.of_tokens (tokens extracts) in
  let details = List.map tokens details in
  let other_list_pages = Option.map (List.map tokens) other in
  Observation.build ?other_list_pages ~extracts ~details ()

let entry_texts (observation : Observation.t) =
  Array.to_list observation.Observation.entries
  |> List.map (fun e -> e.Observation.extract.Extract.text)

let test_observation_d_sets () =
  (* A third detail page keeps Alice off the everywhere-filter. *)
  let observation =
    build "<td>Alice</td><td>Bob</td>"
      [ "<p>Alice</p>"; "<p>Bob and Alice</p>"; "<p>Carol</p>" ]
  in
  match Array.to_list observation.Observation.entries with
  | [ alice; bob ] ->
    Alcotest.(check (list int)) "Alice on both" [ 0; 1 ] alice.Observation.pages;
    Alcotest.(check (list int)) "Bob on second" [ 1 ] bob.Observation.pages
  | _ -> Alcotest.fail "expected two entries"

let test_observation_filters_everywhere () =
  (* "Common" appears on every detail page: uninformative, dropped. *)
  let observation =
    build "<td>Common</td><td>Rare</td>"
      [ "<p>Common</p>"; "<p>Common Rare</p>" ]
  in
  check_strings "only Rare kept" [ "Rare" ] (entry_texts observation);
  check_strings "Common in extras" [ "Common" ]
    (List.map (fun (e : Extract.t) -> e.Extract.text)
       observation.Observation.extras)

let test_observation_filters_all_list_pages () =
  let observation =
    build
      ~other:[ "<p>Shared otherstuff</p>" ]
      "<td>Shared</td><td>Unique</td>"
      [ "<p>Shared</p>"; "<p>Unique</p>" ]
  in
  check_strings "Shared filtered via other list page" [ "Unique" ]
    (entry_texts observation)

let test_observation_unmatched_to_extras () =
  let observation = build "<td>Ghost</td>" [ "<p>nothing</p>" ] in
  check_int "no entries" 0 (Array.length observation.Observation.entries);
  check_int "one extra" 1 (List.length observation.Observation.extras)

let test_observation_positions_recorded () =
  let observation =
    build "<td>Alice</td>" [ "<p>intro</p><p>Alice</p>"; "<p>other</p>" ]
  in
  match Array.to_list observation.Observation.entries with
  | [ entry ] ->
    check_int "one observation" 1 (List.length entry.Observation.positions);
    let page, position = List.hd entry.Observation.positions in
    check_int "page 0" 0 page;
    check_bool "position past intro" true (position > 0)
  | _ -> Alcotest.fail "expected one entry"

let test_candidate_count_and_coverage () =
  let observation =
    build "<td>Alice</td><td>Bob</td>"
      [ "<p>Alice</p>"; "<p>Bob and Alice</p>"; "<p>empty</p>" ]
  in
  check_int "candidates" 3 (Observation.candidate_count observation);
  let covered =
    Array.to_list observation.Observation.entries
    |> List.concat_map (fun e -> e.Observation.pages)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "pages covered" [ 0; 1 ] covered

(* Property: every entry's pages are sorted, distinct and within range;
   positions agree with pages. *)
let prop_observation_invariants =
  QCheck.Test.make ~name:"observation invariants hold on random tables"
    ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let values = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon" |] in
      let random_cells n =
        List.init n (fun _ ->
            Printf.sprintf "<td>%s</td>"
              values.(Random.State.int rand (Array.length values)))
        |> String.concat ""
      in
      let list_page = random_cells (2 + Random.State.int rand 6) in
      let details =
        List.init (1 + Random.State.int rand 4) (fun _ ->
            Printf.sprintf "<p>%s</p>"
              (String.concat " "
                 (List.init (1 + Random.State.int rand 4) (fun _ ->
                      values.(Random.State.int rand (Array.length values))))))
      in
      let observation =
        Observation.build
          ~extracts:(Extract.of_tokens (tokens list_page))
          ~details:(List.map tokens details)
          ()
      in
      Array.for_all
        (fun entry ->
          let pages = entry.Observation.pages in
          pages <> []
          && List.sort_uniq compare pages = pages
          && List.for_all
               (fun p -> p >= 0 && p < observation.Observation.num_details)
               pages
          && List.for_all
               (fun (p, _) -> List.mem p pages)
               entry.Observation.positions)
        observation.Observation.entries)

let () =
  Alcotest.run "tabseg_extract"
    [
      ( "extract",
        [
          Alcotest.test_case "split by tags" `Quick test_extracts_split_by_tags;
          Alcotest.test_case "split by special punctuation" `Quick
            test_extracts_split_by_special_punct;
          Alcotest.test_case "benign punctuation kept" `Quick
            test_extracts_keep_benign_punct;
          Alcotest.test_case "ids sequential" `Quick test_extract_ids_sequential;
          Alcotest.test_case "indices" `Quick test_extract_indices;
          Alcotest.test_case "types union" `Quick test_extract_types_union;
          Alcotest.test_case "empty page" `Quick test_empty_page;
        ] );
      ( "matching",
        [
          Alcotest.test_case "simple" `Quick test_match_simple;
          Alcotest.test_case "ignores separators" `Quick
            test_match_ignores_separators;
          Alcotest.test_case "case sensitive" `Quick test_match_case_sensitive;
          Alcotest.test_case "positions" `Quick test_match_positions;
          Alcotest.test_case "empty needle" `Quick test_match_empty_needle;
          Alcotest.test_case "no partial word match" `Quick
            test_match_partial_overlap;
        ] );
      ( "observation",
        [
          Alcotest.test_case "D sets" `Quick test_observation_d_sets;
          Alcotest.test_case "filters everywhere-values" `Quick
            test_observation_filters_everywhere;
          Alcotest.test_case "filters all-list-pages values" `Quick
            test_observation_filters_all_list_pages;
          Alcotest.test_case "unmatched to extras" `Quick
            test_observation_unmatched_to_extras;
          Alcotest.test_case "positions recorded" `Quick
            test_observation_positions_recorded;
          Alcotest.test_case "candidate count and coverage" `Quick
            test_candidate_count_and_coverage;
        ] );
      ( "reference",
        [
          Alcotest.test_case "Table 4 tables equal" `Quick test_former_table4;
          Alcotest.test_case "corpus tables equal" `Quick test_former_corpus;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_observation_invariants;
          QCheck_alcotest.to_alcotest prop_scan_equals_former;
        ] );
    ]
