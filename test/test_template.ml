open Tabseg_token
open Tabseg_template

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------ Lcs ------------------------------ *)

let chars s = Array.init (String.length s) (String.get s)
let equal_char (a : char) b = a = b

let lcs_string a b =
  Lcs.of_arrays ~equal:equal_char (chars a) (chars b)
  |> List.to_seq |> String.of_seq

let is_subsequence sub full =
  let n = String.length full in
  let rec walk i j =
    if i >= String.length sub then true
    else if j >= n then false
    else if sub.[i] = full.[j] then walk (i + 1) (j + 1)
    else walk i (j + 1)
  in
  walk 0 0

let test_lcs_classic () =
  (* The LCS of this classic pair has length 4 (e.g. "BCBA" or "BDAB");
     the algorithm may return any of them. *)
  let result = lcs_string "ABCBDAB" "BDCABA" in
  Alcotest.(check int) "length 4" 4 (String.length result);
  Alcotest.(check bool) "common subsequence" true
    (is_subsequence result "ABCBDAB" && is_subsequence result "BDCABA")

let test_lcs_identical () =
  Alcotest.(check string) "identical" "hello" (lcs_string "hello" "hello")

let test_lcs_disjoint () =
  Alcotest.(check string) "disjoint" "" (lcs_string "abc" "xyz")

let test_lcs_empty () =
  Alcotest.(check string) "left empty" "" (lcs_string "" "abc");
  Alcotest.(check string) "right empty" "" (lcs_string "abc" "")

let test_lcs_pairs_monotone () =
  let pairs = Lcs.pairs ~equal:equal_char (chars "axbycz") (chars "abc") in
  let rec strictly_increasing = function
    | (i1, j1) :: ((i2, j2) :: _ as rest) ->
      i1 < i2 && j1 < j2 && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  check_bool "indices strictly increasing" true (strictly_increasing pairs);
  check_int "length 3" 3 (List.length pairs)

let prop_lcs_length_bounds =
  QCheck.Test.make ~name:"LCS length bounded by both inputs" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 20))
              (string_of_size (Gen.int_range 0 20)))
    (fun (a, b) ->
      let n = Lcs.length ~equal:equal_char (chars a) (chars b) in
      n <= String.length a && n <= String.length b)

let prop_lcs_symmetric_length =
  QCheck.Test.make ~name:"LCS length is symmetric" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 15))
              (string_of_size (Gen.int_range 0 15)))
    (fun (a, b) ->
      Lcs.length ~equal:equal_char (chars a) (chars b)
      = Lcs.length ~equal:equal_char (chars b) (chars a))

let prop_lcs_is_common_subsequence =
  QCheck.Test.make ~name:"LCS is a subsequence of both inputs" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 15))
              (string_of_size (Gen.int_range 0 15)))
    (fun (a, b) ->
      let l = lcs_string a b in
      is_subsequence l a && is_subsequence l b)

(* ---------------------------- Template ---------------------------- *)

let page_a =
  "<html><body><h1>Site Results</h1><table><tr><td>Alice</td><td>12 Elm \
   St</td></tr><tr><td>Bob</td><td>9 Oak Rd</td></tr></table><p>Copyright \
   2004</p></body></html>"

let page_b =
  "<html><body><h1>Site Results</h1><table><tr><td>Carol</td><td>31 Pine \
   Ave</td></tr><tr><td>Dan</td><td>7 Lake Dr</td></tr><tr><td>Eve</td><td>2 \
   Hill Ct</td></tr></table><p>Copyright 2004</p></body></html>"

let tokens html = Tokenizer.tokenize html

let test_template_contains_chrome () =
  let template = Template.induce [ tokens page_a; tokens page_b ] in
  let keys = Template.keys template in
  check_bool "Results in template" true (List.mem "Results" keys);
  check_bool "Copyright in template" true (List.mem "Copyright" keys);
  check_bool "<table> in template" true (List.mem "<table>" keys)

let test_template_excludes_data_and_rows () =
  let template = Template.induce [ tokens page_a; tokens page_b ] in
  let keys = Template.keys template in
  check_bool "row tag excluded (repeats)" false (List.mem "<tr>" keys);
  check_bool "data excluded" false (List.mem "Alice" keys)

let test_template_rejects_coincidental_data () =
  (* "Alice" appears once on each page but with different neighbors — it
     must not become template (the "Betty Lee" problem). *)
  let a =
    "<html><body><p>head</p><div>Alice Brown</div><div>Zoe Fox</div><p>foot \
     note</p></body></html>"
  in
  let b =
    "<html><body><p>head</p><div>Max Cooper</div><div>Alice \
     Drake</div><p>foot note</p></body></html>"
  in
  let template = Template.induce [ tokens a; tokens b ] in
  check_bool "coincidental name not template" false
    (List.mem "Alice" (Template.keys template))

let test_template_keeps_enumerators () =
  (* Enumerators sit in identical tag context on both pages and must stay
     (the paper's numbered-entry failure depends on it). *)
  let a =
    "<html><body><p>1.</p><div>Alpha Beta</div><p>2.</p><div>Gamma \
     Delta</div></body></html>"
  in
  let b =
    "<html><body><p>1.</p><div>Epsilon Zeta</div><p>2.</p><div>Eta \
     Theta</div></body></html>"
  in
  let template = Template.induce [ tokens a; tokens b ] in
  check_bool "1. kept" true (List.mem "1." (Template.keys template));
  check_bool "2. kept" true (List.mem "2." (Template.keys template))

let test_match_positions_ordered () =
  let template = Template.induce [ tokens page_a; tokens page_b ] in
  match Template.match_positions template (tokens page_a) with
  | None -> Alcotest.fail "template must match its own source page"
  | Some positions ->
    let ordered = ref true in
    Array.iteri
      (fun i p -> if i > 0 && p <= positions.(i - 1) then ordered := false)
      positions;
    check_bool "positions increasing" true !ordered

let test_match_positions_foreign_page () =
  let template = Template.induce [ tokens page_a; tokens page_b ] in
  let foreign = tokens "<html><body><p>nothing here</p></body></html>" in
  check_bool "foreign page does not fit" true
    (Template.match_positions template foreign = None)

let test_slots_cover_table () =
  let template = Template.induce [ tokens page_a; tokens page_b ] in
  let slots = Template.slots template (tokens page_a) in
  match Slot.table_slot slots with
  | None -> Alcotest.fail "expected a table slot"
  | Some slot ->
    let words =
      Slot.tokens slot |> List.filter Token.is_word
      |> List.map (fun (t : Token.t) -> t.Token.text)
    in
    check_bool "contains first record" true (List.mem "Alice" words);
    check_bool "contains last record" true (List.mem "Bob" words);
    check_bool "chrome excluded" false (List.mem "Copyright" words)

let test_slots_whole_page_when_no_fit () =
  let template = Template.induce [ tokens page_a; tokens page_b ] in
  let foreign = tokens "<html><body><p>nothing here</p></body></html>" in
  match Template.slots template foreign with
  | [ slot ] ->
    check_int "whole page slot" (Array.length foreign) (Slot.length slot)
  | _ -> Alcotest.fail "expected single whole-page slot"

(* ------------------- Template: former implementation ------------------- *)

(* Template induction and matching as they were before pages were indexed
   once ([Template.page]), kept verbatim as the reference the current
   implementation must equal. *)
module Former = struct
  type t = { template_keys : string array }

  let key_positions page =
    let positions = Hashtbl.create 256 in
    Array.iteri
      (fun i token ->
        let key = Token.template_key token in
        Hashtbl.replace positions key
          (i :: Option.value ~default:[] (Hashtbl.find_opt positions key)))
      page;
    positions

  let neighbor_keys page i =
    let key j =
      if j < 0 then "^page-start^"
      else if j >= Array.length page then "^page-end^"
      else Token.template_key page.(j)
    in
    (key (i - 1), key (i + 1))

  (* Tokens eligible for the page template must (1) occur exactly once on
     every page, (2) in the same immediate context (previous and next token
     key), and (3) — computed as a fixpoint — have every adjacent *word*
     neighbor be eligible too (tag neighbors are exempt). Rules 2 and 3
     reject data values that happen to occur once per page (a "Betty Lee" on
     both pages keeps "Betty" unique, but its neighbor "Lee" repeats and is
     ineligible, which disqualifies "Betty" as well), while keeping genuine
     per-row structure such as entry enumerators, whose neighbors are the
     same row tags on every page, and chrome sentences, whose neighbors are
     eligible chrome words. *)
  let unique_everywhere pages =
    match pages with
    | [] -> fun _ -> false
    | _ ->
      let all_positions = List.map (fun p -> (p, key_positions p)) pages in
      let base_eligible key =
        let contexts =
          List.map
            (fun (page, positions) ->
              match Hashtbl.find_opt positions key with
              | Some [ i ] -> Some (neighbor_keys page i)
              | Some _ | None -> None)
            all_positions
        in
        match contexts with
        | Some first :: rest ->
          List.for_all (fun context -> context = Some first) rest
        | _ -> false
      in
      (* Collect the candidate set once, then erode it at word boundaries. *)
      let candidates = Hashtbl.create 256 in
      List.iter
        (fun (page, _) ->
          Array.iter
            (fun token ->
              let key = Token.template_key token in
              if (not (Hashtbl.mem candidates key)) && base_eligible key then
                Hashtbl.replace candidates key ())
            page)
        all_positions;
      let is_tag_key key = String.length key > 0 && key.[0] = '<' in
      let boundary_key key =
        key = "^page-start^" || key = "^page-end^"
      in
      let neighbor_ok key =
        is_tag_key key || boundary_key key || Hashtbl.mem candidates key
      in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (page, positions) ->
            Hashtbl.iter
              (fun key () ->
                match Hashtbl.find_opt positions key with
                | Some [ i ] ->
                  let previous, next = neighbor_keys page i in
                  if not (neighbor_ok previous && neighbor_ok next) then begin
                    Hashtbl.remove candidates key;
                    changed := true
                  end
                | Some _ | None -> ())
              (Hashtbl.copy candidates))
          all_positions
      done;
      fun key -> Hashtbl.mem candidates key

  let filtered_sequence eligible page =
    Array.of_list
      (Array.to_list page
      |> List.filter_map (fun token ->
             let key = Token.template_key token in
             if eligible key then Some key else None))

  let induce pages =
    match pages with
    | [] -> { template_keys = [||] }
    | first :: rest ->
      let eligible = unique_everywhere pages in
      let initial = filtered_sequence eligible first in
      let template_keys =
        List.fold_left
          (fun acc page ->
            let candidate = filtered_sequence eligible page in
            Array.of_list (Lcs.of_arrays ~equal:String.equal acc candidate))
          initial rest
      in
      { template_keys }

  let match_positions t page =
    (* Each template key occurs at most a handful of times; find its unique
       occurrence and check monotonicity. *)
    let occurrences = Hashtbl.create 256 in
    Array.iteri
      (fun i token ->
        let key = Token.template_key token in
        Hashtbl.replace occurrences key
          (i :: Option.value ~default:[] (Hashtbl.find_opt occurrences key)))
      page;
    let n = Array.length t.template_keys in
    let positions = Array.make n (-1) in
    let ok = ref true in
    let previous = ref (-1) in
    for i = 0 to n - 1 do
      if !ok then
        match Hashtbl.find_opt occurrences t.template_keys.(i) with
        | Some [ position ] when position > !previous ->
          positions.(i) <- position;
          previous := position
        | Some _ | None -> ok := false
    done;
    if !ok then Some positions else None
end

(* Random pages over a small vocabulary, each a noisy copy of one base
   sequence, a third of them rotated at a random cut, so that keys repeat,
   occur once, share or differ in context, and come in different orders
   on different pages. The vocabulary includes a word spelled like the
   page-boundary sentinel and a word that starts with '<'. *)
let vocabulary =
  Array.append
    (Array.concat
       (List.map
          (fun name ->
            [|
              (fun index -> Token.start_tag ~index name);
              (fun index -> Token.end_tag ~index name);
            |])
          [ "p"; "td"; "b" ]))
    (Array.map
       (fun text index -> Token.word ~index text)
       [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "1."; "2."; "Results";
          "^page-start^"; "<x" |])

let gen_pages =
  let open QCheck.Gen in
  let symbol = int_bound (Array.length vocabulary - 1) in
  let noisy base =
    flatten_l
      (List.map
         (fun v ->
           pair (int_bound 99) (opt ~ratio:0.2 symbol) >|= fun (keep, extra) ->
           (if keep < 85 then [ v ] else []) @ Option.to_list extra)
         base)
    >|= List.concat
  in
  let rotated symbols =
    pair (int_bound 2) (int_bound (List.length symbols)) >|= fun (r, cut) ->
    if r > 0 then symbols
    else
      List.filteri (fun i _ -> i >= cut) symbols
      @ List.filteri (fun i _ -> i < cut) symbols
  in
  list_size (int_range 0 30) symbol >>= fun base ->
  int_range 2 5 >>= fun k ->
  list_repeat k (noisy base >>= rotated)
  >|= List.map (fun symbols ->
          Array.of_list (List.mapi (fun index v -> vocabulary.(v) index) symbols))

let rec permutations = function
  | [] -> [ [] ]
  | items ->
    List.concat_map
      (fun item ->
        List.map (List.cons item)
          (permutations (List.filter (fun other -> other != item) items)))
      items

let print_pages pages =
  String.concat "\n"
    (List.map
       (fun page ->
         String.concat " "
           (Array.to_list (Array.map (fun t -> t.Token.text) page)))
       pages)

(* In every page order, the template of all the pages and the template of
   the first two (which other pages need not fit) must equal the former
   implementation's, and so must their positions on every page. *)
let prop_induce_matches_former =
  QCheck.Test.make ~name:"induce equals the former implementation" ~count:300
    (QCheck.make ~print:print_pages gen_pages)
    (fun pages ->
      List.for_all
        (fun order ->
          List.for_all
            (fun induced ->
              let template = Template.induce induced in
              let former = Former.induce induced in
              Template.keys template = Array.to_list former.Former.template_keys
              && List.for_all
                   (fun page ->
                     Template.match_positions template page
                     = Former.match_positions former page)
                   pages)
            [ order; List.filteri (fun i _ -> i < 2) order ])
        (permutations pages))

(* ------------------------------ Slot ------------------------------ *)

let test_slot_word_count () =
  let page = tokens "<p>one two</p><p>three</p>" in
  let slot = Slot.make page ~start:0 ~stop:3 in
  check_int "words in [0,3)" 2 (Slot.word_count slot)

let test_table_slot_picks_largest () =
  let page = tokens "<p>a</p><p>b c d e</p>" in
  let s1 = Slot.make page ~start:0 ~stop:3 in
  let s2 = Slot.make page ~start:3 ~stop:(Array.length page) in
  match Slot.table_slot [ s1; s2 ] with
  | Some slot -> check_int "largest slot chosen" 3 slot.Slot.start
  | None -> Alcotest.fail "expected a slot"

let test_table_slot_empty () =
  check_bool "no slots" true (Slot.table_slot [] = None);
  let page = tokens "<p></p>" in
  let empty = Slot.make page ~start:0 ~stop:1 in
  check_bool "wordless slots rejected" true (Slot.table_slot [ empty ] = None)

let () =
  Alcotest.run "tabseg_template"
    [
      ( "lcs",
        [
          Alcotest.test_case "classic" `Quick test_lcs_classic;
          Alcotest.test_case "identical" `Quick test_lcs_identical;
          Alcotest.test_case "disjoint" `Quick test_lcs_disjoint;
          Alcotest.test_case "empty" `Quick test_lcs_empty;
          Alcotest.test_case "pairs monotone" `Quick test_lcs_pairs_monotone;
        ] );
      ( "lcs_properties",
        [
          QCheck_alcotest.to_alcotest prop_lcs_length_bounds;
          QCheck_alcotest.to_alcotest prop_lcs_symmetric_length;
          QCheck_alcotest.to_alcotest prop_lcs_is_common_subsequence;
        ] );
      ( "template",
        [
          Alcotest.test_case "contains chrome" `Quick
            test_template_contains_chrome;
          Alcotest.test_case "excludes data and row tags" `Quick
            test_template_excludes_data_and_rows;
          Alcotest.test_case "rejects coincidental data" `Quick
            test_template_rejects_coincidental_data;
          Alcotest.test_case "keeps enumerators" `Quick
            test_template_keeps_enumerators;
          Alcotest.test_case "match positions ordered" `Quick
            test_match_positions_ordered;
          Alcotest.test_case "foreign page no fit" `Quick
            test_match_positions_foreign_page;
          Alcotest.test_case "slots cover table" `Quick test_slots_cover_table;
          Alcotest.test_case "whole page slot when no fit" `Quick
            test_slots_whole_page_when_no_fit;
          QCheck_alcotest.to_alcotest prop_induce_matches_former;
        ] );
      ( "slot",
        [
          Alcotest.test_case "word count" `Quick test_slot_word_count;
          Alcotest.test_case "largest picked" `Quick
            test_table_slot_picks_largest;
          Alcotest.test_case "empty cases" `Quick test_table_slot_empty;
        ] );
    ]
