(* End-to-end shape tests: run both segmentation methods over selected
   synthetic sites and assert the qualitative structure of the paper's
   Table 4 — clean sites segment perfectly, the engineered inconsistencies
   defeat the strict CSP with the right notes while the probabilistic
   method tolerates them, and template failures fall back to the whole
   page. These are the most expensive tests in the suite. *)

open Tabseg_sitegen
open Tabseg_eval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run site_name ~page_index method_ =
  let generated = Sites.generate (Sites.find site_name) in
  let page = List.nth generated.Sites.pages page_index in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index
  in
  let input = { Tabseg.Pipeline.list_pages; detail_pages } in
  let result = Tabseg.Api.segment ~method_ input in
  let counts =
    Scorer.score ~truth:page.Sites.truth result.Tabseg.Api.segmentation
  in
  (counts, result.Tabseg.Api.segmentation.Tabseg.Segmentation.notes)

let has_note note notes = List.mem note notes

let test_clean_site_perfect method_ () =
  List.iter
    (fun (site, page_index, expected) ->
      let counts, notes = run site ~page_index method_ in
      check_int (site ^ " all records correct") expected counts.Metrics.cor;
      check_int (site ^ " nothing wrong") 0
        (counts.Metrics.incor + counts.Metrics.fn + counts.Metrics.fp);
      check_bool (site ^ " no solver notes") true
        (not
           (has_note Tabseg.Segmentation.No_solution notes
           || has_note Tabseg.Segmentation.Relaxed_constraints notes)))
    [ ("AlleghenyCounty", 0, 20); ("ButlerCounty", 1, 12);
      ("LeeCounty", 1, 5) ]

let test_michigan_csp_fails () =
  let counts, notes = run "MichiganCorrections" ~page_index:1 Tabseg.Api.Csp in
  check_bool "note c" true (has_note Tabseg.Segmentation.No_solution notes);
  check_bool "note d" true
    (has_note Tabseg.Segmentation.Relaxed_constraints notes);
  check_bool "degraded" true (counts.Metrics.cor < 8)

let test_michigan_prob_tolerates () =
  let counts, notes =
    run "MichiganCorrections" ~page_index:1 Tabseg.Api.Probabilistic
  in
  check_bool "no solver notes" true
    (not (has_note Tabseg.Segmentation.No_solution notes));
  check_bool "most records correct" true (counts.Metrics.cor >= 10);
  check_int "full recall" 0 counts.Metrics.fn

let test_canada411_pigeonhole () =
  (* Five town extracts, four detail positions: strict CSP must fail. *)
  let _, notes = run "Canada411" ~page_index:1 Tabseg.Api.Csp in
  check_bool "note c" true (has_note Tabseg.Segmentation.No_solution notes)

let test_numbered_site_template_problem () =
  let _, notes = run "BNBooks" ~page_index:0 Tabseg.Api.Csp in
  check_bool "note a" true
    (has_note Tabseg.Segmentation.Template_problem notes);
  check_bool "note b" true
    (has_note Tabseg.Segmentation.Entire_page_used notes)

let test_superpages_both_methods () =
  (* The disjunctive site that defeats union-free grammars: both of our
     content-based methods segment it fully. *)
  List.iter
    (fun method_ ->
      let counts, _ = run "SuperPages" ~page_index:1 method_ in
      check_int
        (Tabseg.Api.method_name method_ ^ " all 15 records")
        15 counts.Metrics.cor)
    [ Tabseg.Api.Csp; Tabseg.Api.Probabilistic ]

let test_prob_full_recall_everywhere () =
  (* Section 6: the probabilistic method's recall was 0.99; ours is 1.0 on
     every page of these sites. *)
  List.iter
    (fun site ->
      let generated = Sites.generate (Sites.find site) in
      List.iteri
        (fun page_index _ ->
          let counts, _ = run site ~page_index Tabseg.Api.Probabilistic in
          check_int (site ^ " fn") 0 counts.Metrics.fn)
        generated.Sites.pages)
    [ "MichiganCorrections"; "SuperPages"; "OhioCorrections" ]

let test_coverage_relaxation_recovers () =
  (* The ablation claim: a coverage-maximizing relaxed solve recovers most
     of a strict-failure page. *)
  let generated = Sites.generate (Sites.find "Canada411") in
  let page = List.nth generated.Sites.pages 1 in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index:1
  in
  let input = { Tabseg.Pipeline.list_pages; detail_pages } in
  let prepared = Tabseg.Pipeline.prepare input in
  let paper =
    Tabseg.Csp_segmenter.segment ~config:Tabseg.Csp_segmenter.default_config
      prepared
  in
  let coverage =
    Tabseg.Csp_segmenter.segment ~config:Tabseg.Csp_segmenter.coverage_config
      prepared
  in
  let score s = (Scorer.score ~truth:page.Sites.truth s).Metrics.cor in
  check_bool "coverage >= paper" true (score coverage >= score paper);
  check_bool "coverage recovers most records" true (score coverage >= 3)

let test_one_record_page () =
  (* A list page with a single record has a single detail page, so every
     matched extract is on "all detail pages": that filter must not fire
     with fewer than 2 detail pages, or the record segments to nothing. *)
  List.iter
    (fun (site : Sites.site) ->
      let site = { site with Sites.records_per_page = [ 1; 6 ] } in
      let generated = Sites.generate site in
      let page = List.hd generated.Sites.pages in
      let list_pages, detail_pages =
        Sites.segmentation_input generated ~page_index:0
      in
      let input = { Tabseg.Pipeline.list_pages; detail_pages } in
      List.iter
        (fun method_ ->
          let result = Tabseg.Api.segment ~method_ input in
          let counts =
            Scorer.score ~truth:page.Sites.truth
              result.Tabseg.Api.segmentation
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s (%s): Cor/InC/FN/FP" site.Sites.name
               (Tabseg.Api.method_name method_))
            [ 1; 0; 0; 0 ]
            Metrics.[ counts.cor; counts.incor; counts.fn; counts.fp ])
        [ Tabseg.Api.Csp; Tabseg.Api.Probabilistic ])
    Sites.all

let () =
  Alcotest.run "tabseg_sites_e2e"
    [
      ( "shape",
        [
          Alcotest.test_case "clean sites perfect (CSP)" `Slow
            (test_clean_site_perfect Tabseg.Api.Csp);
          Alcotest.test_case "clean sites perfect (prob)" `Slow
            (test_clean_site_perfect Tabseg.Api.Probabilistic);
          Alcotest.test_case "michigan: CSP fails with notes c,d" `Slow
            test_michigan_csp_fails;
          Alcotest.test_case "michigan: prob tolerates" `Slow
            test_michigan_prob_tolerates;
          Alcotest.test_case "canada411: pigeonhole UNSAT" `Slow
            test_canada411_pigeonhole;
          Alcotest.test_case "numbered site: notes a,b" `Slow
            test_numbered_site_template_problem;
          Alcotest.test_case "superpages: both methods perfect" `Slow
            test_superpages_both_methods;
          Alcotest.test_case "prob full recall" `Slow
            test_prob_full_recall_everywhere;
          Alcotest.test_case "coverage relaxation recovers" `Slow
            test_coverage_relaxation_recovers;
          Alcotest.test_case "one-record page segments its record" `Slow
            test_one_record_page;
        ] );
    ]
