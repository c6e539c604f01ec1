(* Core-library tests built around the paper's worked Superpages example
   (Tables 1-3) plus edge cases and the strict -> relax fallback. *)

open Tabseg_extract

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Build an observation table directly from (text, D_i, positions). The
   paper's Table 1/Table 3 data is expressible this way without HTML. *)
let make_observation ?(num_details = 0) rows =
  let num_details =
    List.fold_left
      (fun acc (_, pages, _) -> List.fold_left max acc (List.map succ pages))
      num_details rows
  in
  let entries =
    List.mapi
      (fun i (text, pages, positions) ->
        let words = String.split_on_char ' ' text in
        let extract =
          {
            Extract.id = i;
            words;
            text;
            start_index = 10 * (i + 1);
            stop_index = (10 * (i + 1)) + List.length words;
            types = Tabseg_token.Token_type.classify_word (List.hd words);
            first_types = Tabseg_token.Token_type.classify_word (List.hd words);
          }
        in
        { Observation.extract; pages; positions })
      rows
  in
  { Observation.entries = Array.of_list entries; extras = []; num_details }

(* The paper's Table 1 + Table 3: three white-pages records. Records r1 and
   r2 share a name and a phone number; positions disambiguate. *)
let superpages_observation () =
  make_observation
    [
      ("John Smith", [ 0; 1 ], [ (0, 730); (1, 536) ]);
      ("221 Washington St", [ 0 ], [ (0, 772) ]);
      ("New Holland", [ 0 ], [ (0, 812) ]);
      ("(740) 335-5555", [ 0; 1 ], [ (0, 846); (1, 578) ]);
      ("John Smith", [ 0; 1 ], [ (0, 730); (1, 536) ]);
      ("221R Washington St", [ 1 ], [ (1, 608) ]);
      ("Washington", [ 1 ], [ (1, 642) ]);
      ("(740) 335-5555", [ 0; 1 ], [ (0, 846); (1, 578) ]);
      ("George W. Smith", [ 2 ], [ (2, 700) ]);
      ("Findlay, OH", [ 2 ], [ (2, 710) ]);
      ("(419) 423-1212", [ 2 ], [ (2, 720) ]);
    ]

let expected_partition = [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 8; 9; 10 ] ]

let record_ids (segmentation : Tabseg.Segmentation.t) =
  List.map
    (fun (record : Tabseg.Segmentation.record) ->
      List.map (fun (e : Extract.t) -> e.Extract.id)
        record.Tabseg.Segmentation.extracts)
    segmentation.Tabseg.Segmentation.records

(* ------------------------- CSP segmenter ------------------------- *)

let test_csp_superpages_example () =
  let observation = superpages_observation () in
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  Alcotest.(check (list (list int)))
    "paper Table 2 assignment" expected_partition (record_ids segmentation);
  check_bool "no notes" true (segmentation.Tabseg.Segmentation.notes = [])

let test_csp_solution_unique () =
  (* The strict encoding of the paper example admits exactly one model. *)
  let observation = superpages_observation () in
  let encoded =
    Tabseg.Csp_segmenter.encode Tabseg.Csp_segmenter.Strict observation
  in
  check_int "unique model" 1
    (Tabseg_csp.Exact.count_solutions encoded.Tabseg.Csp_segmenter.problem)

let test_csp_michigan_inconsistency () =
  (* Michigan Corrections-style inconsistency: the string "Parole" occurs in
     two list rows but is observed at a single position on a single detail
     page, making the strict problem unsatisfiable; the relaxed problem
     yields a partial assignment (paper notes c, d). *)
  let observation =
    make_observation ~num_details:2
      [
        ("Alice Jones", [ 0 ], [ (0, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
        ("Bob Brown", [ 1 ], [ (1, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
      ]
  in
  let strict =
    Tabseg.Csp_segmenter.encode Tabseg.Csp_segmenter.Strict observation
  in
  check_bool "strict UNSAT" true
    (Tabseg_csp.Exact.solve strict.Tabseg.Csp_segmenter.problem
    = Tabseg_csp.Exact.Unsat);
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  let notes = segmentation.Tabseg.Segmentation.notes in
  check_bool "note c" true
    (List.mem Tabseg.Segmentation.No_solution notes);
  check_bool "note d" true
    (List.mem Tabseg.Segmentation.Relaxed_constraints notes);
  check_bool "partial assignment leaves something unassigned" true
    (segmentation.Tabseg.Segmentation.unassigned <> [])

let test_csp_empty_observation () =
  let observation = make_observation ~num_details:2 [] in
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  check_int "no records" 0
    (List.length segmentation.Tabseg.Segmentation.records)

let test_csp_consecutiveness () =
  (* Without position information, consecutiveness alone must forbid
     sandwiching: E1 and E3 both candidate for r1, E2 only for r2. *)
  let observation =
    make_observation ~num_details:2
      [
        ("A", [ 0; 1 ], []); ("B", [ 1 ], []); ("C", [ 0; 1 ], []);
        ("D", [ 1 ], []);
      ]
  in
  let segmentation = Tabseg.Csp_segmenter.solve_observation observation in
  List.iter
    (fun ids ->
      let sorted = List.sort compare ids in
      let contiguous =
        match sorted with
        | [] -> true
        | first :: _ ->
          List.mapi (fun offset id -> id = first + offset) sorted
          |> List.for_all Fun.id
      in
      check_bool "records are contiguous blocks" true contiguous)
    (record_ids segmentation)

let test_csp_monotonicity () =
  (* X may sit in r0 or r1, Y only in r0. Assigning X to r1 would invert
     record order; monotonicity removes that model. *)
  let observation =
    make_observation ~num_details:2
      [ ("X", [ 0; 1 ], []); ("Y", [ 0 ], []) ]
  in
  let count config =
    let encoded =
      Tabseg.Csp_segmenter.encode ~config Tabseg.Csp_segmenter.Strict
        observation
    in
    Tabseg_csp.Exact.count_solutions encoded.Tabseg.Csp_segmenter.problem
  in
  let with_monotone = Tabseg.Csp_segmenter.default_config in
  let without_monotone =
    { Tabseg.Csp_segmenter.default_config with
      Tabseg.Csp_segmenter.monotone = false }
  in
  check_int "inverted model excluded" 1 (count with_monotone);
  check_int "two models without monotonicity" 2 (count without_monotone)

(* --------------------- Probabilistic segmenter -------------------- *)

let test_prob_superpages_example variant () =
  let observation = superpages_observation () in
  let config = { variant with Tabseg.Prob_segmenter.em_iterations = 8 } in
  let segmentation, diagnostics =
    Tabseg.Prob_segmenter.solve_observation ~config observation
  in
  Alcotest.(check (list (list int)))
    "record partition" expected_partition (record_ids segmentation);
  check_bool "ran EM" true (diagnostics.Tabseg.Prob_segmenter.iterations >= 1)

let test_prob_assigns_every_extract () =
  let observation = superpages_observation () in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  check_int "nothing unassigned" 0
    (List.length segmentation.Tabseg.Segmentation.unassigned)

let test_prob_tolerates_michigan () =
  (* The same inconsistency that defeats the CSP still yields a full
     assignment from the probabilistic method (Section 6.3). *)
  let observation =
    make_observation ~num_details:2
      [
        ("Alice Jones", [ 0 ], [ (0, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
        ("Bob Brown", [ 1 ], [ (1, 100) ]);
        ("Parole", [ 0 ], [ (0, 140) ]);
      ]
  in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  check_int "everything assigned" 0
    (List.length segmentation.Tabseg.Segmentation.unassigned);
  let total =
    List.fold_left
      (fun acc (r : Tabseg.Segmentation.record) ->
        acc + List.length r.Tabseg.Segmentation.extracts)
      0 segmentation.Tabseg.Segmentation.records
  in
  check_int "all four extracts in records" 4 total

let test_prob_single_detail_page () =
  let observation =
    make_observation ~num_details:1
      [ ("A", [ 0 ], []); ("B", [ 0 ], []); ("C", [ 0 ], []) ]
  in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  Alcotest.(check (list (list int)))
    "one record holds everything"
    [ [ 0; 1; 2 ] ]
    (record_ids segmentation)

let test_prob_columns_reported () =
  let observation = superpages_observation () in
  let segmentation, _ =
    Tabseg.Prob_segmenter.solve_observation observation
  in
  List.iter
    (fun (record : Tabseg.Segmentation.record) ->
      check_int "every extract has a column"
        (List.length record.Tabseg.Segmentation.extracts)
        (List.length record.Tabseg.Segmentation.columns);
      (* Within a record, columns are strictly increasing. *)
      let columns = List.map snd record.Tabseg.Segmentation.columns in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      check_bool "columns strictly increasing" true (increasing columns))
    segmentation.Tabseg.Segmentation.records

(* ------------------------- Segmentation -------------------------- *)

let dummy_extract id start text =
  let words = String.split_on_char ' ' text in
  {
    Extract.id;
    words;
    text;
    start_index = start;
    stop_index = start + List.length words;
    types = 0;
    first_types = 0;
  }

let test_assemble_attaches_extras () =
  let e0 = dummy_extract 0 10 "A" in
  let e1 = dummy_extract 1 20 "junk" in
  let e2 = dummy_extract 2 30 "B" in
  let segmentation =
    Tabseg.Segmentation.assemble ~notes:[]
      ~assigned:[ (e0, 0, None); (e2, 1, None) ]
      ~unassigned:[] ~extras:[ e1 ]
  in
  Alcotest.(check (list (list int)))
    "extra attaches to preceding record"
    [ [ 0; 1 ]; [ 2 ] ]
    (record_ids segmentation)

let test_assemble_drops_leading_extras () =
  let junk = dummy_extract 0 5 "header" in
  let e1 = dummy_extract 1 10 "A" in
  let segmentation =
    Tabseg.Segmentation.assemble ~notes:[] ~assigned:[ (e1, 0, None) ]
      ~unassigned:[] ~extras:[ junk ]
  in
  Alcotest.(check (list (list int)))
    "leading extra dropped" [ [ 1 ] ] (record_ids segmentation)

let test_note_letters () =
  check_bool "a" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.Template_problem = 'a');
  check_bool "b" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.Entire_page_used = 'b');
  check_bool "c" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.No_solution = 'c');
  check_bool "d" true
    (Tabseg.Segmentation.note_letter Tabseg.Segmentation.Relaxed_constraints
    = 'd')

(* -------------------------- End to end --------------------------- *)

let list_page_1 =
  {|<html><head><title>SuperPages</title></head><body>
<h1>Results</h1><p>3 Matching Listings</p><a href="search.html">Search Again</a>
<table>
<tr><td><b>John Smith</b></td><td>221 Washington St</td><td>New Holland</td><td>(740) 335-5555</td><td><a href="d1.html">More Info</a></td></tr>
<tr><td><b>John Smith</b></td><td>221R Washington St</td><td>Washington</td><td>(740) 335-5555</td><td><a href="d2.html">More Info</a></td></tr>
<tr><td><b>George W. Smith</b></td><td>100 Main St</td><td>Findlay</td><td>(419) 423-1212</td><td><a href="d3.html">More Info</a></td></tr>
</table>
<p>Copyright 2004 SuperPages</p></body></html>|}

let list_page_2 =
  {|<html><head><title>SuperPages</title></head><body>
<h1>Results</h1><p>2 Matching Listings</p><a href="search.html">Search Again</a>
<table>
<tr><td><b>Mary Major</b></td><td>7 Oak Ave</td><td>Columbus</td><td>(614) 555-0199</td><td><a href="d4.html">More Info</a></td></tr>
<tr><td><b>Ann Minor</b></td><td>9 Elm Rd</td><td>Dayton</td><td>(937) 555-0121</td><td><a href="d5.html">More Info</a></td></tr>
</table>
<p>Copyright 2004 SuperPages</p></body></html>|}

let detail name address city phone =
  Printf.sprintf
    {|<html><body><h1>Detail</h1><p><b>%s</b><br>%s<br>%s<br>%s</p><p>Send Flowers</p><p>Copyright 2004 SuperPages</p></body></html>|}
    name address city phone

let end_to_end_input =
  {
    Tabseg.Pipeline.list_pages = [ list_page_1; list_page_2 ];
    detail_pages =
      [
        detail "John Smith" "221 Washington St" "New Holland" "(740) 335-5555";
        detail "John Smith" "221R Washington St" "Washington" "(740) 335-5555";
        detail "George W. Smith" "100 Main St" "Findlay" "(419) 423-1212";
      ];
  }

let expected_rows =
  [
    [ "John Smith"; "221 Washington St"; "New Holland"; "(740) 335-5555";
      "More Info" ];
    [ "John Smith"; "221R Washington St"; "Washington"; "(740) 335-5555";
      "More Info" ];
    [ "George W. Smith"; "100 Main St"; "Findlay"; "(419) 423-1212";
      "More Info" ];
  ]

let test_end_to_end method_ () =
  let result = Tabseg.Api.segment ~method_ end_to_end_input in
  Alcotest.(check (list (list string)))
    "rows (attributes + attached More Info)" expected_rows
    (Tabseg.Segmentation.record_texts result.Tabseg.Api.segmentation);
  check_bool "no notes" true
    (result.Tabseg.Api.segmentation.Tabseg.Segmentation.notes = [])

let test_pipeline_finds_table_slot () =
  let prepared = Tabseg.Pipeline.prepare end_to_end_input in
  check_bool "template induced" true
    (prepared.Tabseg.Pipeline.template_size
    >= Tabseg.Pipeline.default_config.Tabseg.Pipeline.min_template_tokens);
  check_bool "no notes" true (prepared.Tabseg.Pipeline.notes = []);
  (* The slot must not cover the whole page. *)
  let slot = prepared.Tabseg.Pipeline.table_slot in
  let page = prepared.Tabseg.Pipeline.page in
  check_bool "proper slot" true
    (Tabseg_template.Slot.length slot < Array.length page)

let test_pipeline_whole_page_fallback () =
  (* A single list page cannot support template induction. *)
  let input = { end_to_end_input with Tabseg.Pipeline.list_pages = [ list_page_1 ] } in
  let prepared = Tabseg.Pipeline.prepare input in
  check_bool "notes a and b" true
    (List.mem Tabseg.Segmentation.Template_problem
       prepared.Tabseg.Pipeline.notes
    && List.mem Tabseg.Segmentation.Entire_page_used
         prepared.Tabseg.Pipeline.notes)

(* --------------- CSP encoder: former implementation --------------- *)

(* The CSP encoder as it was before the rows both modes share were built
   once per observation, kept verbatim as the reference the current
   encoder must equal: same variables, same rows, same row order. *)
module Csp = Tabseg.Csp_segmenter

module Former_encoder = struct
  open Tabseg_csp
  open Csp

  let encode ?(config = Csp.default_config) mode observation =
    let entries = observation.Observation.entries in
    let n = Array.length entries in
    (* Allocate one variable per (entry, candidate record). *)
    let variable_of = Hashtbl.create 64 in
    let variables = ref [] in
    let num_vars = ref 0 in
    Array.iteri
      (fun i entry ->
        List.iter
          (fun j ->
            Hashtbl.replace variable_of (i, j) !num_vars;
            variables := (i, j) :: !variables;
            incr num_vars)
          entry.Observation.pages)
      entries;
    let variables = Array.of_list (List.rev !variables) in
    let var i j = Hashtbl.find variable_of (i, j) in
    let constraints = ref [] in
    let add c = constraints := c :: !constraints in
    let seen_pairs = Hashtbl.create 256 in
    let add_pair_le v1 v2 =
      let key = (min v1 v2, max v1 v2) in
      if not (Hashtbl.mem seen_pairs key) then begin
        Hashtbl.replace seen_pairs key ();
        add (Pb.Hard (Pb.at_most_one [ v1; v2 ]))
      end
    in
    (* Uniqueness: every extract belongs to exactly (at most) one record. *)
    Array.iteri
      (fun i entry ->
        let vars = List.map (var i) entry.Observation.pages in
        match mode with
        | Strict -> add (Pb.Hard (Pb.exactly_one vars))
        | Relaxed -> (
          add (Pb.Hard (Pb.at_most_one vars));
          match config.relaxed_objective with
          | Paper -> ()
          | Coverage -> add (Pb.Soft (Pb.exactly_one vars, 1))))
      entries;
    (* Consecutiveness: candidates of record j separated by an entry that
       cannot belong to j may not both be assigned to j. *)
    for j = 0 to observation.Observation.num_details - 1 do
      let candidates = ref [] in
      Array.iteri
        (fun i entry ->
          if List.mem j entry.Observation.pages then candidates := i :: !candidates)
        entries;
      let candidates = List.rev !candidates in
      (* Split candidates into blocks of stream-consecutive entries. *)
      let blocks =
        List.fold_left
          (fun blocks i ->
            match blocks with
            | (last :: _ as block) :: rest when i = last + 1 ->
              (i :: block) :: rest
            | _ -> [ i ] :: blocks)
          [] candidates
        |> List.rev_map List.rev
        |> List.rev
      in
      let rec cross = function
        | [] -> ()
        | block :: rest ->
          List.iter
            (fun i ->
              List.iter
                (fun other_block ->
                  List.iter (fun k -> add_pair_le (var i j) (var k j)) other_block)
                rest)
            block;
          cross rest
      in
      cross blocks
    done;
    (* Position: extracts observed at the same positions on a detail page
       compete for that record — the page offers only as many slots as it
       has occurrences. Extracts are grouped by their full occurrence-
       position list on the page (a value printed twice on the detail page,
       such as the repeated day in "12/12/1990", offers two slots), and at
       most |positions| of a group may take the record. Combined with the
       strict uniqueness equalities this yields the pigeonhole
       unsatisfiabilities of the paper's Section 6.3 failure reports. *)
    let groups = Hashtbl.create 64 in
    Array.iteri
      (fun i entry ->
        let per_page = Hashtbl.create 4 in
        List.iter
          (fun (page, position) ->
            Hashtbl.replace per_page page
              (position
              :: Option.value ~default:[] (Hashtbl.find_opt per_page page)))
          entry.Observation.positions;
        Hashtbl.iter
          (fun page positions ->
            let key = (page, List.sort compare positions) in
            Hashtbl.replace groups key
              (i :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
          per_page)
      entries;
    Hashtbl.iter
      (fun (page, positions) members ->
        let slots = List.length positions in
        match members with
        | [] | [ _ ] -> ()
        | members when List.length members > slots ->
          let terms = List.map (fun i -> (var i page, 1)) members in
          add (Pb.Hard (Pb.linear terms Pb.Le slots))
        | _ -> ())
      groups;
    (* Monotonicity: an earlier extract may not sit in a later record than a
       later extract. *)
    if config.monotone then
      for i = 0 to n - 1 do
        for k = i + 1 to n - 1 do
          List.iter
            (fun j ->
              List.iter
                (fun j' -> if j > j' then add_pair_le (var i j) (var k j'))
                entries.(k).Observation.pages)
            entries.(i).Observation.pages
        done
      done;
    let problem = Pb.make ~num_vars:!num_vars (List.rev !constraints) in
    { problem; variables }
end

(* Random observations: 1-30 entries over 1-6 detail pages, each entry
   observed at 1-4 random (page, position) pairs with positions in 0..4,
   so that position groups collide; [pages] is the ascending set of the
   observed pages, as Observation builds it. *)
let gen_observation =
  let open QCheck.Gen in
  int_range 1 6 >>= fun num_details ->
  list_size (int_range 1 30)
    (list_size (int_range 1 4) (pair (int_bound (num_details - 1)) (int_bound 4)))
  >|= fun rows ->
  make_observation ~num_details
    (List.mapi
       (fun i positions ->
         ( Printf.sprintf "w%d" i,
           List.sort_uniq compare (List.map fst positions),
           positions ))
       rows)

let print_observation (o : Observation.t) =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun (e : Observation.entry) ->
            String.concat " "
              (List.map
                 (fun (page, position) -> Printf.sprintf "%d@%d" page position)
                 e.Observation.positions))
          o.Observation.entries))

let prop_encode_matches_former =
  let configs =
    [
      Csp.default_config;
      Csp.coverage_config;
      { Csp.default_config with Csp.monotone = false };
    ]
  in
  QCheck.Test.make ~name:"encode equals the former encoder" ~count:500
    (QCheck.make ~print:print_observation gen_observation)
    (fun observation ->
      List.for_all
        (fun config ->
          List.for_all
            (fun mode ->
              let encoded = Csp.encode ~config mode observation in
              let former = Former_encoder.encode ~config mode observation in
              encoded.Csp.problem = former.Csp.problem
              && encoded.Csp.variables = former.Csp.variables)
            [ Csp.Strict; Csp.Relaxed ])
        configs)

(* [Api.blank] scans for a non-whitespace byte; it must agree with the
   copying [String.trim s = ""] it replaced, over strings of the five
   bytes [String.trim] strips and one that it keeps. *)
let prop_blank_is_trim =
  QCheck.Test.make ~name:"blank = (String.trim s = \"\")" ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          string_size ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '\012'; 'x' ])
            (int_range 0 12)))
    (fun s -> Tabseg.Api.blank s = (String.trim s = ""))

(* A raising stage subscriber hides the event from no other subscriber:
   one registered before it still receives it, after a stage that
   returned and after one that raised. The stage's own exception wins;
   otherwise the subscriber's propagates as itself. *)
let test_instrument_raising_subscriber () =
  let seen = ref [] in
  let older =
    Tabseg.Instrument.subscribe (fun event ->
        seen := event.Tabseg.Instrument.stage :: !seen)
  in
  let raising =
    Tabseg.Instrument.subscribe (fun _ -> failwith "subscriber")
  in
  Fun.protect
    ~finally:(fun () ->
      Tabseg.Instrument.unsubscribe raising;
      Tabseg.Instrument.unsubscribe older)
  @@ fun () ->
  (match Tabseg.Instrument.time ~stage:"test.returned" (fun () -> 42) with
  | _ -> Alcotest.fail "the subscriber's exception was lost"
  | exception Failure message ->
    Alcotest.(check string) "the subscriber's exception, as itself"
      "subscriber" message);
  (match
     Tabseg.Instrument.time ~stage:"test.raised" (fun () -> raise Exit)
   with
  | () -> Alcotest.fail "the stage's exception was lost"
  | exception Exit -> ());
  Alcotest.(check (list string))
    "the older subscriber saw both events"
    [ "test.returned"; "test.raised" ]
    (List.rev !seen)

let () =
  Alcotest.run "tabseg_core"
    [
      ( "csp_segmenter",
        [
          Alcotest.test_case "paper Table 2" `Quick test_csp_superpages_example;
          Alcotest.test_case "solution unique" `Quick test_csp_solution_unique;
          Alcotest.test_case "michigan inconsistency" `Quick
            test_csp_michigan_inconsistency;
          Alcotest.test_case "empty observation" `Quick
            test_csp_empty_observation;
          Alcotest.test_case "consecutiveness" `Quick test_csp_consecutiveness;
          Alcotest.test_case "monotonicity" `Quick test_csp_monotonicity;
          QCheck_alcotest.to_alcotest prop_encode_matches_former;
        ] );
      ( "prob_segmenter",
        [
          Alcotest.test_case "paper example (period)" `Quick
            (test_prob_superpages_example Tabseg.Prob_segmenter.default_config);
          Alcotest.test_case "paper example (base)" `Quick
            (test_prob_superpages_example Tabseg.Prob_segmenter.base_config);
          Alcotest.test_case "assigns every extract" `Quick
            test_prob_assigns_every_extract;
          Alcotest.test_case "tolerates michigan inconsistency" `Quick
            test_prob_tolerates_michigan;
          Alcotest.test_case "single detail page" `Quick
            test_prob_single_detail_page;
          Alcotest.test_case "columns reported" `Quick
            test_prob_columns_reported;
        ] );
      ( "segmentation",
        [
          Alcotest.test_case "extras attach" `Quick
            test_assemble_attaches_extras;
          Alcotest.test_case "leading extras dropped" `Quick
            test_assemble_drops_leading_extras;
          Alcotest.test_case "note letters" `Quick test_note_letters;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "CSP" `Quick (test_end_to_end Tabseg.Api.Csp);
          Alcotest.test_case "probabilistic" `Quick
            (test_end_to_end Tabseg.Api.Probabilistic);
          Alcotest.test_case "pipeline finds table slot" `Quick
            test_pipeline_finds_table_slot;
          Alcotest.test_case "whole page fallback" `Quick
            test_pipeline_whole_page_fallback;
        ] );
      ("api", [ QCheck_alcotest.to_alcotest prop_blank_is_trim ]);
      ( "instrument",
        [
          Alcotest.test_case "a raising subscriber hides no event" `Quick
            test_instrument_raising_subscriber;
        ] );
    ]
