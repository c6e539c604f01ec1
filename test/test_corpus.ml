(* tabseg.corpus: the site-family sampler's determinism contract (same
   params, same corpus — byte for byte), seed sensitivity, the
   prefix-consistency guarantee for truncated generation of huge sites,
   schema shape bounds, and the evaluation harness (distributions,
   deterministic accuracy digest, scoring through Serve.Service). *)

open Tabseg_corpus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let small_params =
  {
    Family.default_params with
    Family.sites = 12;
    seed = 5;
    max_rows = 2_000;
    max_rows_per_page = 8;
  }

(* ----------------------------- sampling ------------------------------ *)

let test_sample_deterministic () =
  let a = Family.sample small_params and b = Family.sample small_params in
  check_bool "same params, structurally identical specs" true (a = b)

let test_sample_seed_sensitivity () =
  let a = Family.sample small_params in
  let b = Family.sample { small_params with Family.seed = 6 } in
  let schemas specs =
    List.map
      (fun s ->
        ( List.map (fun f -> f.Family.fd_label) s.Family.sp_fields,
          s.Family.sp_rows ))
      specs
  in
  check_bool "different seeds sample different schemas/row counts" true
    (schemas a <> schemas b)

let test_sample_shapes () =
  let specs = Family.sample { Family.default_params with Family.sites = 200 } in
  check_int "requested corpus size" 200 (List.length specs);
  let names = List.map (fun s -> s.Family.sp_name) specs in
  check_int "names are unique" 200
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun spec ->
      let open Family in
      let p = default_params in
      check_bool "row count within the log-uniform bounds" true
        (spec.sp_rows >= p.min_rows && spec.sp_rows <= p.max_rows);
      check_bool "field count within bounds" true
        (List.length spec.sp_fields >= p.min_fields
        && List.length spec.sp_fields <= p.max_fields);
      check_bool "lead field is never optional" true
        (not (List.hd spec.sp_fields).fd_optional);
      check_bool "at least two list pages" true (page_count spec >= 2);
      check_bool "family key is a known family" true
        (List.mem spec.sp_family family_names))
    specs

let test_sample_nested_extremes () =
  let all_nested =
    Family.sample { small_params with Family.nested_p = 1. }
  in
  let none_nested =
    Family.sample { small_params with Family.nested_p = 0. }
  in
  check_bool "nested_p=1: every site has a repeated sub-record" true
    (List.for_all (fun s -> s.Family.sp_nested <> None) all_nested);
  check_bool "nested_p=0: no site has one" true
    (List.for_all (fun s -> s.Family.sp_nested = None) none_nested)

(* ----------------------------- generation ---------------------------- *)

let test_generate_deterministic () =
  let spec = List.hd (Family.sample small_params) in
  let a = Family.generate ~max_pages:3 spec in
  let b = Family.generate ~max_pages:3 spec in
  check_bool "same spec renders byte-identical pages" true
    (List.map (fun p -> p.Family.list_html) a.Family.pages
     = List.map (fun p -> p.Family.list_html) b.Family.pages
    && List.map (fun p -> p.Family.detail_htmls) a.Family.pages
       = List.map (fun p -> p.Family.detail_htmls) b.Family.pages)

let test_generate_prefix_consistent () =
  (* A truncated generation must be a byte-identical prefix of a longer
     one — the property that lets the harness evaluate 10^5-row sites
     without materializing thousands of pages. *)
  let specs = Family.sample small_params in
  List.iter
    (fun spec ->
      let short = Family.generate ~max_pages:2 spec in
      let long = Family.generate ~max_pages:4 spec in
      List.iteri
        (fun i short_page ->
          let long_page = List.nth long.Family.pages i in
          check_string
            (spec.Family.sp_name ^ ": prefix page byte-identical")
            long_page.Family.list_html short_page.Family.list_html;
          check_bool
            (spec.Family.sp_name ^ ": prefix details byte-identical")
            true
            (long_page.Family.detail_htmls = short_page.Family.detail_htmls))
        short.Family.pages)
    (List.filteri (fun i _ -> i < 4) specs)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n > 0 && go 0

let test_truth_visible_on_list_page () =
  let specs = Family.sample small_params in
  List.iter
    (fun spec ->
      let generated = Family.generate ~max_pages:1 spec in
      let page = List.hd generated.Family.pages in
      check_bool (spec.Family.sp_name ^ ": page has truth rows") true
        (page.Family.truth <> []);
      List.iter
        (List.iter (fun cell ->
             (* rendering escapes &, < and > *)
             if
               (not (contains cell "&"))
               && (not (contains cell "<"))
               && not (contains cell ">")
             then
               check_bool
                 (Printf.sprintf "%s: truth cell %S on the list page"
                    spec.Family.sp_name cell)
                 true
                 (contains page.Family.list_html cell)))
        page.Family.truth)
    (List.filteri (fun i _ -> i < 6) specs)

let test_segmentation_input_shape () =
  let spec = List.hd (Family.sample small_params) in
  let generated = Family.generate ~max_pages:4 spec in
  let list_pages, details =
    Family.segmentation_input generated ~page_index:0 ~max_siblings:2
  in
  check_int "target plus two siblings" 3 (List.length list_pages);
  let target = List.hd generated.Family.pages in
  check_string "target page first" target.Family.list_html
    (List.hd list_pages);
  check_int "details are the target page's"
    (List.length target.Family.detail_htmls)
    (List.length details)

(* ------------------------------ harness ------------------------------ *)

let test_distribution_math () =
  let d = Harness.distribution [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  check_bool "mean" true (Float.abs (d.Harness.d_mean -. 0.55) < 1e-9);
  check_bool "p50 (nearest rank)" true
    (Float.abs (d.Harness.d_p50 -. 0.5) < 1e-9);
  check_bool "p5" true (Float.abs (d.Harness.d_p5 -. 0.1) < 1e-9);
  check_bool "p95" true (Float.abs (d.Harness.d_p95 -. 1.0) < 1e-9);
  check_int "histogram bins sum to the sample size" 10
    (Array.fold_left ( + ) 0 d.Harness.d_histogram);
  (* 1.0 clamps into the top bin *)
  check_int "top bin holds 0.9 and 1.0" 2 d.Harness.d_histogram.(9);
  Alcotest.check_raises "empty sample rejected"
    (Invalid_argument "Harness.distribution: empty sample") (fun () ->
      ignore (Harness.distribution []))

let test_site_inputs_shape () =
  let specs = Family.sample { small_params with Family.sites = 3 } in
  let inputs = Harness.site_inputs ~siblings:2 specs in
  check_int "one input per site" 3 (List.length inputs);
  List.iter2
    (fun spec (name, input, truth) ->
      check_string "input keyed by site name" spec.Family.sp_name name;
      check_int "target plus up to two siblings" 3
        (List.length input.Tabseg.Pipeline.list_pages);
      check_int "one detail page per truth row" (List.length truth)
        (List.length input.Tabseg.Pipeline.detail_pages))
    specs inputs

let test_evaluate_small_corpus () =
  let specs = Family.sample { small_params with Family.sites = 5 } in
  let config = { Harness.default_config with Harness.worst_k = 3 } in
  let report = Harness.evaluate ~config specs in
  let again = Harness.evaluate ~config specs in
  check_int "every site evaluated" 5 report.Harness.sites;
  check_int "no service errors" 0 report.Harness.errors;
  check_int "per-site results in corpus order" 5
    (List.length report.Harness.results);
  List.iter2
    (fun spec result ->
      check_string "result order follows corpus order" spec.Family.sp_name
        result.Harness.r_name)
    specs report.Harness.results;
  check_int "worst-k honoured" 3 (List.length report.Harness.worst);
  check_bool "worst list is sorted worst-first" true
    (match report.Harness.worst with
    | a :: b :: _ -> a.Harness.r_f1 <= b.Harness.r_f1
    | _ -> false);
  check_bool "a clean small corpus scores well" true
    (Tabseg_eval.Metrics.f_measure report.Harness.total > 0.6);
  check_string "accuracy digest is deterministic" report.Harness.digest
    again.Harness.digest;
  check_bool "families cover every site" true
    (List.fold_left (fun n f -> n + f.Harness.fs_sites) 0
       report.Harness.families
    = 5);
  let json =
    Harness.report_json
      ~params:{ small_params with Family.sites = 5 }
      ~config report
  in
  check_bool "json mentions the digest" true (contains json report.Harness.digest);
  check_bool "json carries the percentiles" true (contains json "\"p95\"")

let () =
  Alcotest.run "corpus"
    [
      ( "family",
        [
          Alcotest.test_case "sample deterministic" `Quick
            test_sample_deterministic;
          Alcotest.test_case "sample seed sensitivity" `Quick
            test_sample_seed_sensitivity;
          Alcotest.test_case "sampled shapes within bounds" `Quick
            test_sample_shapes;
          Alcotest.test_case "nested_p extremes" `Quick
            test_sample_nested_extremes;
          Alcotest.test_case "generate deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "truncated generation is a prefix" `Quick
            test_generate_prefix_consistent;
          Alcotest.test_case "truth visible on list pages" `Quick
            test_truth_visible_on_list_page;
          Alcotest.test_case "segmentation input shape" `Quick
            test_segmentation_input_shape;
        ] );
      ( "harness",
        [
          Alcotest.test_case "distribution math" `Quick test_distribution_math;
          Alcotest.test_case "site inputs shape" `Quick test_site_inputs_shape;
          Alcotest.test_case "small corpus end-to-end" `Slow
            test_evaluate_small_corpus;
        ] );
    ]
