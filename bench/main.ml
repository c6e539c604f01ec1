(* Benchmark and reproduction harness.

   One subcommand per table/figure of the paper (see DESIGN.md section 4):

     table1 table2 table3   the worked Superpages example
     table4                 the 12-site evaluation, both methods
     clean17                Section 6.3 metrics excluding CSP failures
     figure1                sample list/detail page HTML
     figure23               learned parameters of the probabilistic model
     ablation               base vs period probabilistic model (Fig 2 vs 3)
     ablation-csp           relaxation objective / monotonicity ablations
     vision                 Section 3 end-to-end: crawl, classify, segment
     sweep                  detail-coverage and input-size sweeps
     wrapper                wrapper bootstrap from one segmented page
     baseline               tag heuristic + RoadRunner-lite comparison
     timing                 Bechamel microbenchmarks ("a few seconds" claim)

   With no arguments everything runs in order. *)

open Tabseg_sitegen
open Tabseg_eval

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Shared evaluation driver                                            *)
(* ------------------------------------------------------------------ *)

type page_result = {
  site_name : string;
  page_index : int;
  counts : Metrics.counts;
  notes : Tabseg.Segmentation.note list;
  seconds : float;
}

let segment_page ~method_ ?prob_config generated ~page_index =
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index
  in
  let input = { Tabseg.Pipeline.list_pages; detail_pages } in
  Tabseg.Api.segment ~method_ ?prob_config input

let evaluate_page ~method_ ?prob_config generated ~page_index =
  let page = List.nth generated.Sites.pages page_index in
  let started = Unix.gettimeofday () in
  let result = segment_page ~method_ ?prob_config generated ~page_index in
  let seconds = Unix.gettimeofday () -. started in
  let counts =
    Scorer.score ~truth:page.Sites.truth result.Tabseg.Api.segmentation
  in
  {
    site_name = generated.Sites.site.Sites.name;
    page_index;
    counts;
    notes = result.Tabseg.Api.segmentation.Tabseg.Segmentation.notes;
    seconds;
  }

let evaluate_all ~method_ ?prob_config () =
  List.concat_map
    (fun site ->
      let generated = Sites.generate site in
      List.mapi
        (fun page_index _ ->
          evaluate_page ~method_ ?prob_config generated ~page_index)
        generated.Sites.pages)
    Sites.all

let note_string notes =
  String.concat ", "
    (List.map
       (fun n -> String.make 1 (Tabseg.Segmentation.note_letter n))
       (List.sort_uniq compare notes))

(* ------------------------------------------------------------------ *)
(* Tables 1-3: the worked example                                      *)
(* ------------------------------------------------------------------ *)

let superpages_prepared () =
  let generated = Sites.generate (Sites.find "SuperPages") in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index:0
  in
  Tabseg.Pipeline.prepare { Tabseg.Pipeline.list_pages; detail_pages }

let table1 () =
  section "Table 1: observations of extracts on detail pages (SuperPages)";
  let prepared = superpages_prepared () in
  Format.printf "%a@."
    Tabseg_extract.Observation.pp
    prepared.Tabseg.Pipeline.observation

let table2 () =
  section "Table 2: assignment of extracts to records (CSP, SuperPages)";
  let prepared = superpages_prepared () in
  let segmentation = Tabseg.Csp_segmenter.segment prepared in
  Format.printf "%a@." Tabseg.Segmentation.pp_assignment_table segmentation;
  Format.printf "@.%a@." Tabseg.Segmentation.pp segmentation

let table3 () =
  section "Table 3: positions of extracts on detail pages (SuperPages)";
  let prepared = superpages_prepared () in
  Format.printf "%a@."
    Tabseg_extract.Observation.pp_positions
    prepared.Tabseg.Pipeline.observation

(* ------------------------------------------------------------------ *)
(* Table 4: the 12-site evaluation                                     *)
(* ------------------------------------------------------------------ *)

let print_table4_rows prob csp =
  Printf.printf "%-22s %4s | %-18s %-8s | %-18s %-8s\n" "Site" "page"
    "Probabilistic" "notes" "CSP" "notes";
  Printf.printf "%-22s %4s | %-18s %-8s | %-18s %-8s\n" "" ""
    "Cor/InC/FN/FP" "" "Cor/InC/FN/FP" "";
  List.iter2
    (fun (p : page_result) (c : page_result) ->
      assert (p.site_name = c.site_name && p.page_index = c.page_index);
      let cell counts = Format.asprintf "%a" Metrics.pp counts in
      Printf.printf "%-22s %4d | %-18s %-8s | %-18s %-8s\n" p.site_name
        (p.page_index + 1) (cell p.counts) (note_string p.notes)
        (cell c.counts) (note_string c.notes))
    prob csp

let print_totals label results =
  let totals = Metrics.total (List.map (fun r -> r.counts) results) in
  Printf.printf "%-14s %s  (%s)\n" label
    (Format.asprintf "%a" Metrics.pp_prf totals)
    (Format.asprintf "Cor/InC/FN/FP = %a" Metrics.pp totals)

let table4 () =
  section "Table 4: automatic record segmentation of 12 sites";
  let prob = evaluate_all ~method_:Tabseg.Api.Probabilistic () in
  let csp = evaluate_all ~method_:Tabseg.Api.Csp () in
  print_table4_rows prob csp;
  Printf.printf "\n";
  print_totals "Probabilistic" prob;
  print_totals "CSP" csp;
  Printf.printf
    "\nPaper:         Probabilistic P=0.74 R=0.99 F=0.85 | CSP P=0.85 \
     R=0.84 F=0.84\n";
  (prob, csp)

let clean17 ?precomputed () =
  section
    "Section 6.3: metrics on the pages where the CSP found a solution";
  let prob, csp =
    match precomputed with
    | Some results -> results
    | None ->
      ( evaluate_all ~method_:Tabseg.Api.Probabilistic (),
        evaluate_all ~method_:Tabseg.Api.Csp () )
  in
  let failed (r : page_result) =
    List.mem Tabseg.Segmentation.No_solution r.notes
  in
  let kept_keys =
    List.filter_map
      (fun (r : page_result) ->
        if failed r then None else Some (r.site_name, r.page_index))
      csp
  in
  let keep (r : page_result) =
    List.mem (r.site_name, r.page_index) kept_keys
  in
  Printf.printf "Pages kept: %d of %d\n" (List.length kept_keys)
    (List.length csp);
  print_totals "CSP" (List.filter keep csp);
  print_totals "Probabilistic" (List.filter keep prob);
  Printf.printf
    "\nPaper (17 clean pages): CSP P=0.99 R=0.92 F=0.95 | Probabilistic \
     P=0.78 R=1.00 F=0.88\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: example pages                                             *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "Figure 1: example list and detail pages (SuperPages)";
  let generated = Sites.generate (Sites.find "SuperPages") in
  let page = List.hd generated.Sites.pages in
  Printf.printf "--- list page ---\n%s\n" page.Sites.list_html;
  Printf.printf "--- first detail page ---\n%s\n"
    (List.hd page.Sites.detail_htmls)

(* ------------------------------------------------------------------ *)
(* Figures 2-3: the learned model parameters                           *)
(* ------------------------------------------------------------------ *)

let figure23 () =
  section
    "Figures 2-3: learned parameters of the probabilistic model \
     (OhioCorrections page 1)";
  let generated = Sites.generate (Sites.find "OhioCorrections") in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index:0
  in
  let input = { Tabseg.Pipeline.list_pages; detail_pages } in
  let type_names =
    [| "html"; "punct"; "alnum"; "numeric"; "alpha"; "cap"; "lower";
       "CAPS" |]
  in
  let show label config =
    let result =
      Tabseg.Api.segment ~method_:Tabseg.Api.Probabilistic
        ~prob_config:config input
    in
    match result.Tabseg.Api.diagnostics with
    | None -> ()
    | Some d ->
      Printf.printf "\n--- %s (EM %d iterations, logL %.1f) ---\n" label
        d.Tabseg.Prob_segmenter.iterations
        d.Tabseg.Prob_segmenter.log_likelihood;
      (match d.Tabseg.Prob_segmenter.period_distribution with
      | Some pi ->
        Printf.printf "P(pi): %s\n"
          (String.concat " "
             (Array.to_list
                (Array.mapi
                   (fun l p ->
                     if p > 0.02 then Printf.sprintf "len%d:%.2f" (l + 1) p
                     else "")
                   pi)
              |> List.filter (fun s -> s <> "")))
      | None -> ());
      List.iter
        (fun (c, profile) ->
          let dominant =
            Array.to_list (Array.mapi (fun bit p -> (p, bit)) profile)
            |> List.sort compare |> List.rev
            |> List.filteri (fun i (p, _) -> i < 3 && p > 0.3)
            |> List.map (fun (p, bit) ->
                   Printf.sprintf "%s:%.2f" type_names.(bit) p)
          in
          Printf.printf "P(T|C=L%d): %s\n" (c + 1)
            (String.concat " " dominant))
        d.Tabseg.Prob_segmenter.emission_profiles
  in
  show "Base model (Figure 2)" Tabseg.Prob_segmenter.base_config;
  show "Period model (Figure 3)" Tabseg.Prob_segmenter.default_config

(* ------------------------------------------------------------------ *)
(* Ablation: base vs period model (Figure 2 vs Figure 3)               *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: probabilistic model without/with the period model";
  let base =
    evaluate_all ~method_:Tabseg.Api.Probabilistic
      ~prob_config:Tabseg.Prob_segmenter.base_config ()
  in
  let period =
    evaluate_all ~method_:Tabseg.Api.Probabilistic
      ~prob_config:Tabseg.Prob_segmenter.default_config ()
  in
  Printf.printf "On the twelve synthetic sites:\n";
  print_totals "Base (Fig 2)" base;
  print_totals "Period (Fig 3)" period;
  (* Decode strategy: the paper's MAP (Viterbi) vs per-extract posterior
     argmax. *)
  let posterior =
    evaluate_all ~method_:Tabseg.Api.Probabilistic
      ~prob_config:
        { Tabseg.Prob_segmenter.default_config with
          Tabseg.Prob_segmenter.decoder =
            Tabseg.Prob_segmenter.Posterior_decoding }
      ()
  in
  Printf.printf "\nDecode strategy (period model):\n";
  print_totals "MAP (paper)" period;
  print_totals "Posterior" posterior;
  (* The detail-page constraints dominate on full sites, so the variants
     nearly tie there. The period structure earns its keep when the
     bootstrap is ambiguous: stress observation tables where extracts match
     several neighboring detail pages and record lengths are bimodal. *)
  Printf.printf
    "\nStress: random observation tables, K=12 records, record length 3 \
     or 5,\nper-extract record accuracy (mean over 8 tables):\n";
  Printf.printf "%-26s %-10s %-10s %-10s\n" "" "amb=0.0" "amb=0.5" "amb=0.9";
  let column_masks_typed =
    (* five distinguishable column type signatures *)
    [| 0b00110100 (* capitalized alpha *); 0b00001100 (* numeric *);
       0b10010100 (* allcaps *); 0b00001100 (* numeric *);
       0b01010100 (* lowercased *) |]
  in
  let column_masks_flat = Array.make 5 0b00110100 in
  let run_regime label masks =
    let accuracies =
      List.map
        (fun ambiguity ->
          let rand = Random.State.make [| 97; int_of_float (ambiguity *. 100.) |] in
          let trial variant =
            (* Build a random observation table. *)
            let num_records = 12 in
            let lengths =
              Array.init num_records (fun _ ->
                  if Random.State.bool rand then 3 else 5)
            in
            let entries = ref [] in
            let truth = ref [] in
            let id = ref 0 in
            Array.iteri
              (fun j length ->
                for position = 0 to length - 1 do
                  let column = if length = 3 then position + 1 else position in
                  let candidates =
                    List.sort_uniq compare
                      (j
                      :: List.filter_map
                           (fun neighbor ->
                             if
                               neighbor >= 0 && neighbor < num_records
                               && Random.State.float rand 1.0 < ambiguity
                             then Some neighbor
                             else None)
                           [ j - 1; j + 1 ])
                  in
                  let extract =
                    {
                      Tabseg_extract.Extract.id = !id;
                      words = [ Printf.sprintf "w%d" !id ];
                      text = Printf.sprintf "w%d" !id;
                      start_index = 10 * !id;
                      stop_index = (10 * !id) + 1;
                      types = masks.(column);
                      first_types = masks.(column);
                    }
                  in
                  entries :=
                    { Tabseg_extract.Observation.extract;
                      pages = candidates; positions = [] }
                    :: !entries;
                  truth := j :: !truth;
                  incr id
                done)
              lengths;
            let observation =
              {
                Tabseg_extract.Observation.entries =
                  Array.of_list (List.rev !entries);
                extras = [];
                num_details = num_records;
              }
            in
            let truth = Array.of_list (List.rev !truth) in
            let config =
              let quick base =
                { base with
                  Tabseg.Prob_segmenter.em_iterations = 4; max_columns = 8 }
              in
              match variant with
              | `Base -> quick Tabseg.Prob_segmenter.base_config
              | `Period -> quick Tabseg.Prob_segmenter.default_config
            in
            let segmentation, _ =
              Tabseg.Prob_segmenter.solve_observation ~config observation
            in
            let correct = ref 0 in
            List.iter
              (fun (record : Tabseg.Segmentation.record) ->
                List.iter
                  (fun (e : Tabseg_extract.Extract.t) ->
                    if
                      e.Tabseg_extract.Extract.id < Array.length truth
                      && truth.(e.Tabseg_extract.Extract.id)
                         = record.Tabseg.Segmentation.number
                    then incr correct)
                  record.Tabseg.Segmentation.extracts)
              segmentation.Tabseg.Segmentation.records;
            float_of_int !correct /. float_of_int (Array.length truth)
          in
          let mean variant =
            let trials = List.init 8 (fun _ -> trial variant) in
            List.fold_left ( +. ) 0. trials /. 8.
          in
          (mean `Base, mean `Period))
        [ 0.0; 0.5; 0.9 ]
    in
    let row name select =
      Printf.printf "%-26s %s\n" name
        (String.concat ""
           (List.map
              (fun pair -> Printf.sprintf "%-10.3f" (select pair))
              accuracies))
    in
    row (label ^ ", base (Fig 2)") fst;
    row (label ^ ", period (Fig 3)") snd
  in
  run_regime "typed columns" column_masks_typed;
  run_regime "flat columns" column_masks_flat;
  Printf.printf
    "\nPaper: \"this more complex model does in fact give us improvements \
     in accuracy\" (Section 5.2.2)\n"

(* ------------------------------------------------------------------ *)
(* Ablation: CSP design choices                                        *)
(* ------------------------------------------------------------------ *)

let evaluate_all_csp config =
  List.concat_map
    (fun site ->
      let generated = Sites.generate site in
      List.mapi
        (fun page_index page ->
          let list_pages, detail_pages =
            Sites.segmentation_input generated ~page_index
          in
          let input = { Tabseg.Pipeline.list_pages; detail_pages } in
          let prepared = Tabseg.Pipeline.prepare input in
          let segmentation = Tabseg.Csp_segmenter.segment ~config prepared in
          let counts = Scorer.score ~truth:page.Sites.truth segmentation in
          {
            site_name = site.Sites.name;
            page_index;
            counts;
            notes = segmentation.Tabseg.Segmentation.notes;
            seconds = 0.;
          })
        generated.Sites.pages)
    Sites.all

let ablation_csp () =
  section "Ablation: CSP design choices";
  let default = Tabseg.Csp_segmenter.default_config in
  Printf.printf "Relaxation objective after a strict failure:\n";
  print_totals "Paper (satisfy)" (evaluate_all_csp default);
  print_totals "Coverage (soft)"
    (evaluate_all_csp Tabseg.Csp_segmenter.coverage_config);
  Printf.printf
    "\nMonotonicity constraints (implicit in the paper's horizontal-layout \
     assumption):\n";
  print_totals "with" (evaluate_all_csp default);
  print_totals "without"
    (evaluate_all_csp { default with Tabseg.Csp_segmenter.monotone = false })

(* ------------------------------------------------------------------ *)
(* Baselines (Section 6.3 discussion)                                  *)
(* ------------------------------------------------------------------ *)

let baseline () =
  section "Baselines: HTML-tag heuristic and RoadRunner-lite";
  Printf.printf "%-22s %-32s %s\n" "Site" "Tag heuristic (Cor/InC/FN/FP)"
    "RoadRunner-lite";
  List.iter
    (fun site ->
      let generated = Sites.generate site in
      let page = List.hd generated.Sites.pages in
      let tag_counts =
        Scorer.score ~truth:page.Sites.truth
          (Tabseg_baseline.Tag_heuristic.segment page.Sites.list_html)
      in
      let roadrunner =
        match Tabseg_baseline.Roadrunner_lite.induce page.Sites.list_html with
        | Tabseg_baseline.Roadrunner_lite.Wrapper { rows_matched; _ } ->
          Printf.sprintf "wrapper induced (%d rows)" rows_matched
        | Tabseg_baseline.Roadrunner_lite.Failure reason ->
          "FAILED: " ^ reason
      in
      Printf.printf "%-22s %-32s %s\n" site.Sites.name
        (Format.asprintf "%a  %a" Metrics.pp tag_counts Metrics.pp_prf
           tag_counts)
        roadrunner)
    Sites.all;
  Printf.printf
    "\nPaper claim: union-free grammars fail on alternative formatting \
     (SuperPages); the content-based methods handle it.\n"

(* ------------------------------------------------------------------ *)
(* The Section 3 vision: crawl, classify, segment (extension)          *)
(* ------------------------------------------------------------------ *)

let vision () =
  section
    "Section 3 vision: entry page -> crawl -> classify -> segment (auto)";
  Printf.printf "%-22s %8s %6s %8s %6s | %-24s\n" "Site" "fetched" "lists"
    "details" "other" "auto segmentation (P/R/F per list page)";
  List.iter
    (fun site ->
      let generated = Sites.generate site in
      let graph = Tabseg_navigator.Simulate.graph_of_site generated in
      let report = Tabseg_navigator.Auto.run graph in
      let scores =
        List.filter_map
          (fun result ->
            match
              Tabseg_navigator.Simulate.truth_for generated
                result.Tabseg_navigator.Auto.list_url
            with
            | None -> None
            | Some truth ->
              Some
                (Format.asprintf "%a" Metrics.pp_prf
                   (Scorer.score ~truth
                      result.Tabseg_navigator.Auto.segmentation)))
          report.Tabseg_navigator.Auto.results
      in
      Printf.printf "%-22s %8d %6d %8d %6d | %s\n" site.Sites.name
        report.Tabseg_navigator.Auto.pages_fetched
        report.Tabseg_navigator.Auto.lists_found
        report.Tabseg_navigator.Auto.details_found
        report.Tabseg_navigator.Auto.others_found
        (String.concat "  " scores))
    Sites.all;
  Printf.printf
    "\nPaper (Section 3): \"the user provides a pointer to the top-level \
     page and the system automatically navigates the site ... We are \
     already close to this vision.\"\n"

(* ------------------------------------------------------------------ *)
(* Sweeps (extension): detail coverage and input-size scaling          *)
(* ------------------------------------------------------------------ *)

let sweep () =
  section "Sweep: accuracy vs detail-page coverage (extension)";
  (* The paper assumes every detail page was downloaded. What if only a
     fraction was? Blank the missing ones (evenly spread) and measure. *)
  let generated = Sites.generate (Sites.find "AlleghenyCounty") in
  let page = List.hd generated.Sites.pages in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index:0
  in
  let detail_pages = Array.of_list detail_pages in
  let total = Array.length detail_pages in
  let blank = "<html><body><p>page not downloaded</p></body></html>" in
  Printf.printf "%-10s %-28s %-28s\n" "coverage" "CSP (P/R/F)"
    "Probabilistic (P/R/F)";
  List.iter
    (fun coverage ->
      let kept = max 1 (coverage * total / 100) in
      let details =
        Array.to_list
          (Array.mapi
             (fun i html ->
               (* Keep indices spread evenly across the table. *)
               if i * kept / total < (i + 1) * kept / total then html
               else blank)
             detail_pages)
      in
      let input = { Tabseg.Pipeline.list_pages; detail_pages = details } in
      let score method_ =
        let result = Tabseg.Api.segment ~method_ input in
        Format.asprintf "%a" Metrics.pp_prf
          (Scorer.score ~truth:page.Sites.truth
             result.Tabseg.Api.segmentation)
      in
      Printf.printf "%-10s %-28s %-28s\n"
        (Printf.sprintf "%d%%" coverage)
        (score Tabseg.Api.Csp)
        (score Tabseg.Api.Probabilistic))
    [ 100; 80; 60; 40; 20 ];
  section "Sweep: wall time vs table size (extension)";
  Printf.printf "%-10s %12s %12s %12s\n" "records" "pipeline" "csp"
    "prob(period)";
  List.iter
    (fun n ->
      let site =
        { (Sites.find "AlleghenyCounty") with
          Sites.name = Printf.sprintf "Scale%d" n;
          records_per_page = [ n; n ];
          seed = 4000 + n }
      in
      let generated = Sites.generate site in
      let list_pages, detail_pages =
        Sites.segmentation_input generated ~page_index:0
      in
      let input = { Tabseg.Pipeline.list_pages; detail_pages } in
      let time f =
        let started = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. started
      in
      let pipeline_time =
        time (fun () -> ignore (Tabseg.Pipeline.prepare input))
      in
      let prepared = Tabseg.Pipeline.prepare input in
      let csp_time =
        time (fun () -> ignore (Tabseg.Csp_segmenter.segment prepared))
      in
      let prob_time =
        time (fun () -> ignore (Tabseg.Prob_segmenter.segment prepared))
      in
      Printf.printf "%-10d %10.1fms %10.1fms %10.1fms\n" n
        (pipeline_time *. 1000.) (csp_time *. 1000.) (prob_time *. 1000.))
    [ 10; 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* Fault sweep: throughput and accuracy vs injected fault rate         *)
(* ------------------------------------------------------------------ *)

(* The resilient-crawling scenario: sweep the fault rate from a healthy
   web to one where half the URLs misbehave, and watch recovery,
   accuracy and (virtual-time) throughput degrade. Smoke mode runs one
   transient-only point and fails the process when recovery or accuracy
   regress — the per-PR guard for the degraded pipeline. *)
let fault_sweep ?(smoke = false) () =
  section
    (if smoke then "Fault sweep (smoke): rate 0.1, one seed"
     else "Fault sweep: recovery/accuracy/throughput vs fault rate");
  let sites =
    if smoke then [ Sites.find "ButlerCounty" ]
    else [ Sites.find "ButlerCounty"; Sites.find "AlleghenyCounty" ]
  in
  let rates =
    if smoke then [ 0.1 ] else [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ]
  in
  let seeds = if smoke then [ 0 ] else [ 0; 1; 2 ] in
  let permanent_rate = if smoke then 0.0 else 0.1 in
  Printf.printf
    "%-8s %10s %8s %8s %8s %8s %10s %8s\n" "rate" "recovered" "damaged"
    "giveups" "retries" "trips" "pages/s" "mean F";
  let guard_failed = ref false in
  List.iter
    (fun rate ->
      let recovered = ref 0 and reachable = ref 0 in
      let damaged = ref 0 and giveups = ref 0 in
      let retries = ref 0 and trips = ref 0 in
      let elapsed_ms = ref 0 and fetched = ref 0 in
      let fs = ref [] in
      List.iter
        (fun site ->
          let generated = Sites.generate site in
          List.iter
            (fun seed ->
              let graph = Tabseg_navigator.Simulate.graph_of_site generated in
              let source =
                if rate > 0. then
                  Tabseg_navigator.Faults.wrap
                    ~config:
                      {
                        Tabseg_navigator.Faults.default_config with
                        Tabseg_navigator.Faults.seed = seed;
                        fault_rate = rate;
                        permanent_rate;
                      }
                    graph
                else Tabseg_navigator.Faults.pristine graph
              in
              let report = Tabseg_navigator.Auto.run_resilient source in
              let crawl = report.Tabseg_navigator.Auto.crawl in
              recovered :=
                !recovered
                + crawl.Tabseg_navigator.Crawler.pages_ok
                + crawl.Tabseg_navigator.Crawler.pages_damaged;
              reachable := !reachable + Tabseg_navigator.Webgraph.size graph;
              damaged :=
                !damaged + crawl.Tabseg_navigator.Crawler.pages_damaged;
              giveups := !giveups + crawl.Tabseg_navigator.Crawler.giveups;
              retries := !retries + crawl.Tabseg_navigator.Crawler.retries;
              trips :=
                !trips + crawl.Tabseg_navigator.Crawler.breaker_trips;
              elapsed_ms :=
                !elapsed_ms + crawl.Tabseg_navigator.Crawler.elapsed_ms;
              fetched :=
                !fetched + report.Tabseg_navigator.Auto.pages_fetched;
              List.iter
                (fun result ->
                  match
                    Tabseg_navigator.Simulate.truth_for generated
                      result.Tabseg_navigator.Auto.list_url
                  with
                  | None -> ()
                  | Some truth ->
                    fs :=
                      Metrics.f_measure
                        (Scorer.score ~truth
                           result.Tabseg_navigator.Auto.segmentation)
                      :: !fs)
                report.Tabseg_navigator.Auto.results)
            seeds)
        sites;
      let recovery = float_of_int !recovered /. float_of_int !reachable in
      let mean_f =
        if !fs = [] then 0.
        else List.fold_left ( +. ) 0. !fs /. float_of_int (List.length !fs)
      in
      let throughput =
        (* virtual pages per virtual second; infinite on a zero-latency
           healthy web, so print it as a dash there *)
        if !elapsed_ms = 0 then nan
        else float_of_int !fetched /. (float_of_int !elapsed_ms /. 1000.)
      in
      Printf.printf "%-8.2f %9.1f%% %8d %8d %8d %8d %10s %8.3f\n" rate
        (100. *. recovery) !damaged !giveups !retries !trips
        (if Float.is_nan throughput then "-"
         else Printf.sprintf "%.1f" throughput)
        mean_f;
      if smoke && (recovery < 0.95 || mean_f < 0.9) then begin
        guard_failed := true;
        Printf.printf
          "SMOKE FAILURE: recovery %.3f (need >= 0.95), mean F %.3f (need \
           >= 0.9)\n"
          recovery mean_f
      end)
    rates;
  if smoke then
    if !guard_failed then exit 1
    else Printf.printf "smoke ok: degraded-mode recovery and accuracy hold\n"

(* ------------------------------------------------------------------ *)
(* The serving layer's requests and their renderings                   *)
(* ------------------------------------------------------------------ *)

module Serve = Tabseg_serve

(* Page 0 of each of the twelve sites, as service requests. *)
let site_requests () =
  List.map
    (fun site ->
      let generated = Sites.generate site in
      let list_pages, detail_pages =
        Sites.segmentation_input generated ~page_index:0
      in
      {
        Serve.Service.id = site.Sites.name;
        site = site.Sites.name;
        input = { Tabseg.Pipeline.list_pages; detail_pages };
      })
    Sites.all

let render_responses responses =
  List.map
    (fun (response : Serve.Service.response) ->
      match response.Serve.Service.outcome with
      | Ok result ->
        Format.asprintf "%a" Tabseg.Segmentation.pp
          result.Tabseg.Api.segmentation
      | Error error -> "ERROR: " ^ Serve.Service.error_message error)
    responses

(* ------------------------------------------------------------------ *)
(* Store: cold vs warm start through the persistent tier               *)
(* ------------------------------------------------------------------ *)

module Store = Tabseg_store.Store

let temp_store_dir prefix =
  let path = Filename.temp_file prefix ".tabstore" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name -> Sys.remove (Filename.concat dir name))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let persist_counts service =
  match Serve.Service.cache_stats service with
  | Some { Serve.Cache.persist = Some p; _ } ->
    (p.Serve.Cache.template_hits, p.Serve.Cache.result_hits)
  | _ -> (0, 0)

(* One service lifetime over [requests] against [store_dir]: returns
   (renders, seconds, L2 template hits, L2 result hits). *)
let store_round ~method_ ~store_dir requests =
  let config =
    {
      Serve.Service.default_config with
      Serve.Service.method_;
      store_dir = Some store_dir;
    }
  in
  let service = Serve.Service.create ~config () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service)
  @@ fun () ->
  let started = Unix.gettimeofday () in
  let responses = Serve.Service.run_batch service requests in
  let seconds = Unix.gettimeofday () -. started in
  let tpl_hits, res_hits = persist_counts service in
  (render_responses responses, seconds, tpl_hits, res_hits)

(* Compaction behaviour in isolation: append synthetic entries well past
   a small budget and watch the log stay bounded. *)
let store_compaction_probe () =
  let dir = temp_store_dir "tabseg_compact" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = { Store.default_config with Store.capacity_mb = 1 } in
  let store = Store.open_store ~config dir in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let value = String.make (64 * 1024) 'v' in
  let puts = 64 (* 4 MB through a 1 MB budget *) in
  for i = 1 to puts do
    ignore (Store.put store ~key:(Printf.sprintf "key-%04d" i) value)
  done;
  let s = Store.stats store in
  (* the newest entries must have survived every compaction *)
  let newest_alive = Store.mem store (Printf.sprintf "key-%04d" puts) in
  (puts, s, newest_alive)

(* The store benchmark: the 12-site corpus served cold (empty store),
   then again by a "restarted" process (fresh in-memory caches, same
   store directory) — the restart must be pure lookup. A third restart
   under the other segmentation method re-pays only the back half: its
   result keys miss but every template comes from the store. *)
let store_bench ?(json = false) () =
  section "Store: cold vs warm start through the persistent tier";
  let requests = site_requests () in
  let dir = temp_store_dir "tabseg_bench" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let method_ = Tabseg.Api.Probabilistic in
  let cold, cold_s, _, _ = store_round ~method_ ~store_dir:dir requests in
  let warm, warm_s, _, warm_res_hits =
    store_round ~method_ ~store_dir:dir requests
  in
  let _, csp_s, csp_tpl_hits, _ =
    store_round ~method_:Tabseg.Api.Csp ~store_dir:dir requests
  in
  let identical = cold = warm in
  let n = List.length requests in
  let store_bytes =
    (Unix.stat (Filename.concat dir "current.seg")).Unix.st_size
  in
  Printf.printf "%-34s %8.1f ms  (%d sites, empty store)\n" "cold start"
    (cold_s *. 1000.) n;
  Printf.printf
    "%-34s %8.1f ms  (%d/%d requests from the store, identical: %b)\n"
    "warm restart" (warm_s *. 1000.) warm_res_hits n identical;
  Printf.printf
    "%-34s %8.1f ms  (%d/%d templates from the store)\n"
    "warm restart, other method" (csp_s *. 1000.) csp_tpl_hits n;
  Printf.printf "%-34s %8.1f KB on disk\n" "store size"
    (float_of_int store_bytes /. 1024.);
  let puts, cs, newest_alive = store_compaction_probe () in
  Printf.printf
    "compaction: %d x 64KB puts through a 1 MB budget -> %d compactions, \
     %d live entries, %d KB file (newest survives: %b)\n"
    puts cs.Store.compactions cs.Store.entries
    (cs.Store.file_bytes / 1024) newest_alive;
  if json then begin
    let path = "BENCH_store.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"bench\": \"store.warm_start\",\n  \"sites\": %d,\n  \
       \"cold_seconds\": %.4f,\n  \"warm_seconds\": %.4f,\n  \
       \"warm_speedup\": %.2f,\n  \"warm_result_hits\": %d,\n  \
       \"warm_identical\": %b,\n  \"cross_method_seconds\": %.4f,\n  \
       \"cross_method_template_hits\": %d,\n  \"store_bytes\": %d,\n  \
       \"compaction\": {\"puts\": %d, \"put_bytes\": %d, \"budget_bytes\": \
       %d, \"compactions\": %d, \"live_entries\": %d, \"file_bytes\": %d, \
       \"newest_survives\": %b}\n}\n"
      n cold_s warm_s
      (if warm_s > 0. then cold_s /. warm_s else 0.)
      warm_res_hits identical csp_s csp_tpl_hits store_bytes puts
      (puts * 64 * 1024) (1024 * 1024) cs.Store.compactions cs.Store.entries
      cs.Store.file_bytes newest_alive;
    close_out oc;
    Printf.printf "\nwrote %s\n" path
  end

(* The per-PR store guard: raw write -> reopen -> byte-identical read
   (blobs chosen to embed the record framing bytes), then the warm-start
   guarantee on one site — a restarted service must answer the repeated
   corpus entirely from the store, byte-identically. *)
let store_smoke () =
  section "Store smoke: reopen byte-identity + warm-start guarantee";
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  (* 1. raw byte-identity across a close/reopen *)
  let dir = temp_store_dir "tabseg_smoke" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let blobs =
    [
      ("empty", "");
      ("binary", "\x00\x01TSRC\xff\xfe" ^ String.make 4096 '\x00');
      ("header", "TABSTORE embedded header bytes");
      ("big", String.init 100_000 (fun i -> Char.chr (i land 0xff)));
    ]
  in
  let store = Store.open_store dir in
  List.iter
    (fun (key, value) ->
      if not (Store.put store ~key value) then fail "put %s refused" key)
    blobs;
  Store.close store;
  let store = Store.open_store dir in
  List.iter
    (fun (key, value) ->
      match Store.get store key with
      | Some read when read = value -> ()
      | Some _ -> fail "reopened read of %s differs" key
      | None -> fail "reopened store lost %s" key)
    blobs;
  Store.close store;
  (* 2. warm-start guarantee on one site *)
  let site = Sites.find "ButlerCounty" in
  let generated = Sites.generate site in
  let requests =
    List.mapi
      (fun page_index _ ->
        let list_pages, detail_pages =
          Sites.segmentation_input generated ~page_index
        in
        {
          Serve.Service.id = Printf.sprintf "%s#%d" site.Sites.name page_index;
          site = site.Sites.name;
          input = { Tabseg.Pipeline.list_pages; detail_pages };
        })
      generated.Sites.pages
  in
  let service_dir = temp_store_dir "tabseg_smoke_srv" in
  Fun.protect ~finally:(fun () -> rm_rf service_dir) @@ fun () ->
  let method_ = Tabseg.Api.Probabilistic in
  let cold, _, _, _ = store_round ~method_ ~store_dir:service_dir requests in
  let warm, _, _, warm_res_hits =
    store_round ~method_ ~store_dir:service_dir requests
  in
  if warm <> cold then fail "warm restart diverged from the cold run";
  if warm_res_hits < List.length requests then
    fail "only %d/%d warm requests served from the store" warm_res_hits
      (List.length requests);
  let _, _, csp_tpl_hits, _ =
    store_round ~method_:Tabseg.Api.Csp ~store_dir:service_dir requests
  in
  if csp_tpl_hits < List.length requests then
    fail "only %d/%d templates served from the store under the other method"
      csp_tpl_hits (List.length requests);
  if not !ok then exit 1;
  Printf.printf
    "smoke ok: reopen byte-identity, %d/%d warm store hits, %d/%d \
     cross-method template hits\n"
    warm_res_hits (List.length requests) csp_tpl_hits
    (List.length requests)

(* The per-PR serve guard: on one generated site, a cached service's
   cold and warm rounds (the warm one over cached templates) must
   reproduce the sequential segmentation byte-for-byte. *)
let serve_smoke () =
  section "Serve smoke: warm-cache identity";
  let site = Sites.find "ButlerCounty" in
  let generated = Sites.generate site in
  let requests =
    List.mapi
      (fun page_index _ ->
        let list_pages, detail_pages =
          Sites.segmentation_input generated ~page_index
        in
        {
          Serve.Service.id = Printf.sprintf "%s#%d" site.Sites.name page_index;
          site = site.Sites.name;
          input = { Tabseg.Pipeline.list_pages; detail_pages };
        })
      generated.Sites.pages
  in
  let sequential =
    List.map
      (fun (request : Serve.Service.request) ->
        match
          Tabseg.Api.segment_result ~method_:Tabseg.Api.Probabilistic
            request.Serve.Service.input
        with
        | Ok result ->
          Format.asprintf "%a" Tabseg.Segmentation.pp
            result.Tabseg.Api.segmentation
        | Error error -> "ERROR: " ^ Tabseg.Api.input_error_message error)
      requests
  in
  let service = Serve.Service.create () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service)
  @@ fun () ->
  let cold = render_responses (Serve.Service.run_batch service requests) in
  let warm = render_responses (Serve.Service.run_batch service requests) in
  let ok = ref true in
  if cold <> sequential then begin
    ok := false;
    Printf.printf "SMOKE FAILURE: cold run diverged from sequential\n"
  end;
  if warm <> sequential then begin
    ok := false;
    Printf.printf
      "SMOKE FAILURE: warm-cache run diverged from sequential\n"
  end;
  if not !ok then exit 1;
  Printf.printf "smoke ok: cold = warm = sequential (%d pages)\n"
    (List.length requests)

(* ------------------------------------------------------------------ *)
(* Gateway: the multi-process front-end                                 *)
(* ------------------------------------------------------------------ *)

module Gw = Tabseg_gateway.Gateway

let render_gateway_responses responses =
  List.map
    (fun response ->
      match Gw.result response with
      | Ok result ->
        Format.asprintf "%a" Tabseg.Segmentation.pp
          result.Tabseg.Api.segmentation
      | Error error -> "ERROR: " ^ Gw.error_message error)
    responses

(* The sequential, uncached reference rendering — what every gateway
   configuration must reproduce byte for byte. *)
let gateway_reference ?(method_ = Serve.Service.default_config.method_)
    requests =
  render_responses
    (let service =
       Serve.Service.create
         ~config:
           { Serve.Service.default_config with
             Serve.Service.cache = None; method_ }
         ()
     in
     Fun.protect ~finally:(fun () -> Serve.Service.shutdown service)
     @@ fun () -> Serve.Service.run_batch service requests)

type gateway_point = {
  g_workload : string;  (* "cpu" | "io" *)
  g_procs : int;  (* worker processes *)
  g_store : string;  (* "cold" | "warm" *)
  g_requests : int;
  g_seconds : float;
  g_rps : float;
  g_speedup_vs_seq : float;  (* filled in a second pass *)
  g_deterministic : bool;
}

(* One (workload, procs) configuration over a throwaway store
   directory: a cold round (empty store, forks and lock acquisition
   included in wall time only via create, not per-request), then warm
   rounds against the now-populated store. *)
let gateway_cell ~workload ~fetch_s ~procs ~warm_rounds ~requests
    ~reference =
  let dir = temp_store_dir "tabseg_gw" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config =
    {
      Gw.default_config with
      Gw.procs;
      service =
        {
          Serve.Service.default_config with
          Serve.Service.simulated_fetch_s = fetch_s;
          store_dir = Some dir;
        };
    }
  in
  let gateway = Gw.create ~config () in
  Fun.protect ~finally:(fun () -> Gw.shutdown gateway) @@ fun () ->
  let round () =
    render_gateway_responses (Gw.run_batch gateway requests) = reference
  in
  let point store seconds rounds ok =
    let total = rounds * List.length requests in
    {
      g_workload = workload;
      g_procs = procs;
      g_store = store;
      g_requests = total;
      g_seconds = seconds;
      g_rps = float_of_int total /. seconds;
      g_speedup_vs_seq = 1.;
      g_deterministic = ok;
    }
  in
  let started = Unix.gettimeofday () in
  let cold_ok = round () in
  let cold_seconds = Unix.gettimeofday () -. started in
  let warm_ok = ref true in
  let started = Unix.gettimeofday () in
  for _ = 1 to warm_rounds do
    if not (round ()) then warm_ok := false
  done;
  let warm_seconds = Unix.gettimeofday () -. started in
  [
    point "cold" cold_seconds 1 cold_ok;
    point "warm" warm_seconds warm_rounds !warm_ok;
  ]

let gateway_json points =
  let point_json p =
    Printf.sprintf
      "    {\"workload\": \"%s\", \"procs\": %d, \"store\": \"%s\", \
       \"requests\": %d, \"seconds\": %.4f, \"rps\": %.2f, \
       \"speedup_vs_seq\": %.3f, \"deterministic\": %b}"
      p.g_workload p.g_procs p.g_store p.g_requests p.g_seconds
      p.g_rps p.g_speedup_vs_seq p.g_deterministic
  in
  Printf.sprintf
    "{\n  \"bench\": \"gateway.throughput\",\n  \"sites\": %d,\n  \
     \"recommended_domains\": %d,\n  \"sweep\": [\n%s\n  ]\n}\n"
    (List.length Sites.all)
    (Domain.recommended_domain_count ())
    (String.concat ",\n" (List.map point_json points))

(* The gateway benchmark: procs 1/2/4 over a shared throwaway store, in
   the cpu and io regimes, cold and warm store rounds. Worker processes
   share no heap, so they pay no stop-the-world minor-GC rendezvous: on
   a multi-core host the cpu regime scales with procs. Responses are
   checked byte-for-byte against the sequential reference in every
   cell. *)
let gateway_bench ?(json = false) () =
  section "Gateway: procs x store sweep (12 sites, shared store)";
  Printf.printf "(1 cold + warm rounds per cell; %d hardware core(s))\n"
    (Domain.recommended_domain_count ());
  let requests = site_requests () in
  let reference = gateway_reference requests in
  let cells =
    List.concat_map
      (fun (workload, fetch_s, warm_rounds) ->
        List.concat_map
          (fun procs ->
            gateway_cell ~workload ~fetch_s ~procs ~warm_rounds ~requests
              ~reference)
          [ 1; 2; 4 ])
      [ ("cpu", 0., 2); ("io", 0.75, 1) ]
  in
  let baseline workload store =
    match
      List.find_opt
        (fun p ->
          p.g_workload = workload && p.g_store = store && p.g_procs = 1)
        cells
    with
    | Some p -> p.g_rps
    | None -> nan
  in
  let points =
    List.map
      (fun p ->
        { p with
          g_speedup_vs_seq = p.g_rps /. baseline p.g_workload p.g_store })
      cells
  in
  Printf.printf "%-5s %6s %6s %8s %9s %6s\n" "load" "procs" "store" "req/s"
    "speedup" "ok";
  List.iter
    (fun p ->
      Printf.printf "%-5s %6d %6s %8.2f %8.2fx %6s\n" p.g_workload p.g_procs
        p.g_store p.g_rps p.g_speedup_vs_seq
        (if p.g_deterministic then "yes" else "NO");
      if not p.g_deterministic then
        Printf.printf
          "WARNING: %s procs=%d %s diverged from the sequential reference\n"
          p.g_workload p.g_procs p.g_store)
    points;
  if json then begin
    let path = "BENCH_gateway.json" in
    let oc = open_out path in
    output_string oc (gateway_json points);
    close_out oc;
    Printf.printf "\nwrote %s\n" path
  end;
  points

(* A crash from outside, as a real one happens: one site's requests go
   to a procs=2 gateway whose workers sleep [simulated_fetch_s] inside
   every cold request; 0.1 s in, the worker the master counts a backlog
   for is SIGKILLed, and the gateway is pumped until every request
   resolved. Returns the renderings and the restart count. *)
let gateway_kill_mid_request requests =
  let service =
    { Serve.Service.default_config with Serve.Service.simulated_fetch_s = 0.2 }
  in
  let gateway =
    Gw.create
      ~config:{ Gw.default_config with Gw.procs = 2; backoff_s = 0.01; service }
      ()
  in
  Fun.protect ~finally:(fun () -> Gw.shutdown gateway) @@ fun () ->
  let responses = Array.make (List.length requests) None in
  List.iteri
    (fun i request ->
      Gw.submit gateway ~on_complete:(fun r -> responses.(i) <- Some r) request)
    requests;
  let until = Unix.gettimeofday () +. 0.1 in
  while Unix.gettimeofday () < until do
    Gw.pump ~max_wait_s:0.01 gateway
  done;
  let backlog i =
    Serve.Metrics.gauge_value
      (Serve.Metrics.gauge (Gw.metrics gateway)
         (Printf.sprintf "gateway.worker%d.inflight" i))
  in
  List.iter
    (fun (slot, pid) -> if backlog slot > 0. then Unix.kill pid Sys.sigkill)
    (Gw.worker_pids gateway);
  while Array.exists Option.is_none responses do
    Gw.pump ~max_wait_s:0.05 gateway
  done;
  ( render_gateway_responses
      (Array.to_list (Array.map Option.get responses)),
    Serve.Metrics.counter_value
      (Serve.Metrics.counter (Gw.metrics gateway) "gateway.worker_restarts") )

(* The per-PR gateway guard: procs=1 (one forked worker) and procs=2
   must each reproduce the sequential segmentation byte for byte; every
   request submitted twice in one batch must have its second copy join
   the first one's frame at the master (a hit with the same rendering,
   counted in gateway.memo_hits); and a worker killed mid-request must
   be restarted with the request re-dispatched — the caller sees the
   correct result, not a typed error. *)
let gateway_smoke () =
  section
    "Gateway smoke: procs=1/2 byte-identity, joined copies, worker-kill \
     recovery";
  let site = Sites.find "ButlerCounty" in
  let generated = Sites.generate site in
  let requests =
    List.mapi
      (fun page_index _ ->
        let list_pages, detail_pages =
          Sites.segmentation_input generated ~page_index
        in
        {
          Serve.Service.id = Printf.sprintf "%s#%d" site.Sites.name page_index;
          site = site.Sites.name;
          input = { Tabseg.Pipeline.list_pages; detail_pages };
        })
      generated.Sites.pages
  in
  let reference = gateway_reference requests in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  (* 1. procs=1 and procs=2 responses byte-identical to sequential. *)
  List.iter
    (fun procs ->
      let gateway = Gw.create ~config:{ Gw.default_config with Gw.procs } () in
      let rendered =
        Fun.protect ~finally:(fun () -> Gw.shutdown gateway) @@ fun () ->
        render_gateway_responses (Gw.run_batch gateway requests)
      in
      if rendered <> reference then
        fail "procs=%d diverged from sequential" procs)
    [ 1; 2 ];
  (* 2. each request twice in one batch: the copies join the frames in
     flight and come back as hits, rendered as the first copies. *)
  (let gateway = Gw.create ~config:{ Gw.default_config with Gw.procs = 2 } () in
   Fun.protect ~finally:(fun () -> Gw.shutdown gateway) @@ fun () ->
   let copies =
     List.map
       (fun (r : Serve.Service.request) ->
         { r with Serve.Service.id = r.Serve.Service.id ^ "/copy" })
       requests
   in
   let responses = Gw.run_batch gateway (requests @ copies) in
   let n = List.length requests in
   let firsts = List.filteri (fun i _ -> i < n) responses
   and seconds = List.filteri (fun i _ -> i >= n) responses in
   if render_gateway_responses firsts <> reference then
     fail "first copies diverged from sequential";
   List.iter2
     (fun first (second : Gw.response) ->
       if not second.Gw.cache_hit then
         fail "%s: the second copy was not a hit" second.Gw.id;
       if render_gateway_responses [ second ] <> render_gateway_responses [ first ]
       then fail "%s: the second copy renders otherwise" second.Gw.id)
     firsts seconds;
   let memo_hits =
     Serve.Metrics.counter_value
       (Serve.Metrics.counter (Gw.metrics gateway) "gateway.memo_hits")
   in
   if memo_hits <> n then
     fail "gateway.memo_hits counted %d of %d copies" memo_hits n);
  (* 3. a worker killed mid-request recovers to the correct result. *)
  let recovered, restarts = gateway_kill_mid_request requests in
  if recovered <> reference then
    fail "responses after worker crash diverged from sequential";
  if restarts < 1 then fail "worker crash was not supervised (no restart)";
  if not !ok then exit 1;
  Printf.printf
    "smoke ok: procs=1 = procs=2 = sequential (%d pages), every second \
     copy a joined hit, crash recovery via %d restart(s) returned correct \
     results\n"
    (List.length requests) restarts

(* ------------------------------------------------------------------ *)
(* Gateway overload: graceful degradation under Zipf-skewed stampedes   *)
(* ------------------------------------------------------------------ *)

(* Skewed site popularity: rank r drawn with probability proportional
   to 1/r^exponent, from a seeded generator — the heavy-tailed traffic
   shape of large list-page corpora, reproducible run to run. The CDF
   construction is shared with the daemon load generator
   ({!Prng.zipf_cdf}); the uniform draw stays on this bench's own
   [Random.State]. *)
let zipf_sampler ~state ~n ~exponent =
  let cdf = Prng.zipf_cdf ~n ~exponent in
  fun () -> Prng.zipf_index cdf (Random.State.float state 1.0)

(* Every overload request reuses one small page set under 12 synthetic
   site labels: the label drives affinity and quotas. The workers model
   the service time: with no cache, every request sleeps
   [simulated_fetch_s] and then runs a CSP segmentation of the page,
   which costs under a millisecond — so the bench measures queueing and
   the degradation ladder, not the segmenter (essential on a 1-core
   runner, where sleeps overlap across processes but compute does
   not). *)
let overload_input () =
  let site = Sites.find "ButlerCounty" in
  let generated = Sites.generate site in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index:0
  in
  { Tabseg.Pipeline.list_pages; detail_pages }

let overload_labels =
  Array.init 12 (fun i -> Printf.sprintf "overload-site-%02d" i)

let modeled_service service_s =
  {
    Serve.Service.default_config with
    Serve.Service.cache = None;
    simulated_fetch_s = service_s;
    method_ = Tabseg.Api.Csp;
  }

(* What every modeled-service reply must render to. *)
let modeled_reference input =
  List.hd
    (gateway_reference ~method_:Tabseg.Api.Csp
       [ { Serve.Service.id = "ref"; site = "ref"; input } ])

type overload_mode = {
  om_name : string;
  om_spill : int option;
  om_shed : bool;
  om_quota : float option;
}

let overload_modes =
  [
    { om_name = "static"; om_spill = None; om_shed = false; om_quota = None };
    { om_name = "spill"; om_spill = Some 2; om_shed = false; om_quota = None };
    {
      om_name = "spill+shed";
      om_spill = Some 2;
      om_shed = true;
      om_quota = None;
    };
    {
      om_name = "full";
      om_spill = Some 2;
      om_shed = true;
      om_quota = Some 25.0;
    };
  ]

type overload_point = {
  o_rate : int;  (* offered arrivals per second *)
  o_mode : string;
  o_offered : int;
  o_ok : int;  (* in-deadline completions *)
  o_goodput : float;  (* ok / wall seconds *)
  o_shed : int;
  o_spilled : int;
  o_quota : int;
  o_deadline_missed : int;
  o_p50_ms : float;
  o_p95_ms : float;
  o_p99_ms : float;
  o_max_backlog : int;  (* worst per-worker frame backlog observed *)
  o_restarts : int;
  o_deterministic : bool;
}

(* One (mode, rate) cell: a fresh 2-proc gateway, warmed, then [waves]
   bursts of rate*wave_s Zipf-drawn requests submitted open-loop (each
   wave is offered regardless of how the last one fared). Goodput
   counts only in-deadline completions, every one checked byte-for-byte
   against the sequential reference. *)
let overload_cell ~mode ~rate ~waves ~wave_s ~service_s ~deadline_s ~input
    ~reference =
  let config =
    {
      Gw.default_config with
      Gw.procs = 2;
      service = modeled_service service_s;
      deadline_s = Some deadline_s;
      spill_threshold = mode.om_spill;
      shed = mode.om_shed;
      site_quota_rps = mode.om_quota;
    }
  in
  let gateway = Gw.create ~config () in
  Fun.protect ~finally:(fun () -> Gw.shutdown gateway) @@ fun () ->
  let counter name =
    Serve.Metrics.counter_value
      (Serve.Metrics.counter (Gw.metrics gateway) name)
  in
  let backlog () =
    Array.fold_left
      (fun acc i ->
        max acc
          (int_of_float
             (Serve.Metrics.gauge_value
                (Serve.Metrics.gauge (Gw.metrics gateway)
                   (Printf.sprintf "gateway.worker%d.inflight" i)))))
      0 [| 0; 1 |]
  in
  let request ~id label = { Serve.Service.id = id; site = label; input } in
  (* One warm-up round, not counted, seeds the per-worker EWMAs with
     the modeled service time. *)
  ignore
    (Gw.run_batch gateway
       (Array.to_list
          (Array.map (fun label -> request ~id:("w-" ^ label) label)
             overload_labels)));
  let base_shed = counter "gateway.shed" in
  let base_spilled = counter "gateway.spilled" in
  let base_quota = counter "gateway.quota_rejected" in
  let base_missed = counter "gateway.deadline_exceeded" in
  let state = Random.State.make [| 4242; rate |] in
  let draw =
    zipf_sampler ~state ~n:(Array.length overload_labels) ~exponent:1.5
  in
  let per_wave = int_of_float (float_of_int rate *. wave_s) in
  let ok = ref 0 in
  let deterministic = ref true in
  let max_backlog = ref 0 in
  let started = Unix.gettimeofday () in
  for wave = 1 to waves do
    let requests =
      List.init per_wave (fun i ->
          request
            ~id:(Printf.sprintf "r%d-%d" wave i)
            overload_labels.(draw ()))
    in
    let wave_started = Unix.gettimeofday () in
    let responses = Gw.run_batch gateway requests in
    List.iter
      (fun response ->
        match Gw.result response with
        | Ok result ->
          incr ok;
          if
            Format.asprintf "%a" Tabseg.Segmentation.pp
              result.Tabseg.Api.segmentation
            <> reference
          then deterministic := false
        | Error _ -> ())
      responses;
    max_backlog := max !max_backlog (backlog ());
    (* Open-loop pacing: the next wave leaves on schedule even when
       this one resolved early (all shed, say). A congested wave runs
       ~deadline long and is already past its slot. *)
    let wall = Unix.gettimeofday () -. wave_started in
    if wall < wave_s then Unix.sleepf (wave_s -. wall)
  done;
  let elapsed = Unix.gettimeofday () -. started in
  let turnaround =
    Serve.Metrics.summary
      (Serve.Metrics.histogram (Gw.metrics gateway)
         "gateway.turnaround_seconds")
  in
  let ms x = x *. 1000. in
  {
    o_rate = rate;
    o_mode = mode.om_name;
    o_offered = per_wave * waves;
    o_ok = !ok;
    o_goodput = float_of_int !ok /. elapsed;
    o_shed = counter "gateway.shed" - base_shed;
    o_spilled = counter "gateway.spilled" - base_spilled;
    o_quota = counter "gateway.quota_rejected" - base_quota;
    o_deadline_missed = counter "gateway.deadline_exceeded" - base_missed;
    o_p50_ms = ms turnaround.Serve.Metrics.p50;
    o_p95_ms = ms turnaround.Serve.Metrics.p95;
    o_p99_ms = ms turnaround.Serve.Metrics.p99;
    o_max_backlog = !max_backlog;
    o_restarts = counter "gateway.worker_restarts";
    o_deterministic = !deterministic;
  }

let overload_json ~rates ~waves ~wave_s ~service_s ~deadline_s points =
  let point_json p =
    Printf.sprintf
      "    {\"rate\": %d, \"mode\": \"%s\", \"offered\": %d, \"ok\": %d, \
       \"goodput_rps\": %.2f, \"shed\": %d, \"spilled\": %d, \
       \"quota_rejected\": %d, \"deadline_missed\": %d, \"p50_ms\": %.2f, \
       \"p95_ms\": %.2f, \"p99_ms\": %.2f, \"max_backlog\": %d, \
       \"restarts\": %d, \"deterministic\": %b}"
      p.o_rate p.o_mode p.o_offered p.o_ok p.o_goodput p.o_shed p.o_spilled
      p.o_quota p.o_deadline_missed p.o_p50_ms p.o_p95_ms p.o_p99_ms
      p.o_max_backlog p.o_restarts p.o_deterministic
  in
  let top_rate = List.fold_left max 0 rates in
  let goodput mode =
    match
      List.find_opt (fun p -> p.o_rate = top_rate && p.o_mode = mode) points
    with
    | Some p -> p.o_goodput
    | None -> nan
  in
  let static = goodput "static" and degraded = goodput "spill+shed" in
  Printf.sprintf
    "{\n  \"bench\": \"gateway.overload\",\n  \"procs\": 2,\n  \
     \"service_ms\": %.1f,\n  \"deadline_ms\": %.1f,\n  \
     \"zipf_exponent\": 1.5,\n  \"sites\": %d,\n  \"waves\": %d,\n  \
     \"wave_s\": %.2f,\n  \"seed\": 4242,\n  \"sweep\": [\n%s\n  ],\n  \
     \"top_rate\": %d,\n  \"goodput_static_at_top\": %.2f,\n  \
     \"goodput_degraded_at_top\": %.2f,\n  \"degradation_ratio_at_top\": \
     %.2f\n}\n"
    (service_s *. 1000.) (deadline_s *. 1000.)
    (Array.length overload_labels)
    waves wave_s
    (String.concat ",\n" (List.map point_json points))
    top_rate static degraded
    (degraded /. static)

(* The overload benchmark: arrival rates below, at ~1.6x, and at ~2.4x
   the fleet's service capacity (2 workers x 1/service_s), against each
   rung of the degradation ladder. The static baseline collapses — its
   workers grind through zombie work whose deadlines already passed, so
   in-deadline completions go to ~zero while backlogs grow without
   bound; shedding keeps the queues holding only winnable work and
   goodput pinned near capacity. *)
let overload_bench ?(json = false) () =
  section "Gateway overload: Zipf stampede x degradation ladder";
  let waves = 6 and wave_s = 0.5 in
  let service_s = 0.02 and deadline_s = 0.5 in
  let rates = [ 80; 160; 240 ] in
  Printf.printf
    "(procs=2, service %.0f ms, deadline %.0f ms, %d waves of %.1f s, \
     Zipf(1.5) over %d sites, seed 4242; fleet capacity ~%.0f req/s)\n"
    (service_s *. 1000.) (deadline_s *. 1000.) waves wave_s
    (Array.length overload_labels)
    (2. /. service_s);
  let input = overload_input () in
  let reference = modeled_reference input in
  let points =
    List.concat_map
      (fun rate ->
        List.map
          (fun mode ->
            overload_cell ~mode ~rate ~waves ~wave_s ~service_s ~deadline_s
              ~input ~reference)
          overload_modes)
      rates
  in
  Printf.printf "%5s %-10s %7s %5s %9s %6s %6s %6s %7s %8s %8s %3s\n" "rate"
    "mode" "offered" "ok" "goodput" "shed" "spill" "quota" "missed" "p95ms"
    "backlog" "ok?";
  List.iter
    (fun p ->
      Printf.printf "%5d %-10s %7d %5d %9.1f %6d %6d %6d %7d %8.1f %8d %3s\n"
        p.o_rate p.o_mode p.o_offered p.o_ok p.o_goodput p.o_shed p.o_spilled
        p.o_quota p.o_deadline_missed p.o_p95_ms p.o_max_backlog
        (if p.o_deterministic then "yes" else "NO"))
    points;
  if json then begin
    let path = "BENCH_overload.json" in
    let oc = open_out path in
    output_string oc
      (overload_json ~rates ~waves ~wave_s ~service_s ~deadline_s points);
    close_out oc;
    Printf.printf "\nwrote %s\n" path
  end;
  points

(* The per-PR overload guard: one fixed-seed skewed burst at ~1.6x
   capacity. The degraded gateway must keep goodput positive with the
   ladder demonstrably engaged (something shed, something spilled), no
   worker may crash or be restarted in either cell, and every completed
   response must stay byte-identical to the sequential reference. *)
let overload_smoke () =
  section "Overload smoke: skewed burst, goodput > 0, no worker crashes";
  let waves = 3 and wave_s = 0.5 in
  let service_s = 0.02 and deadline_s = 0.5 in
  let rate = 160 in
  let input = overload_input () in
  let reference = modeled_reference input in
  let cell mode =
    overload_cell ~mode ~rate ~waves ~wave_s ~service_s ~deadline_s ~input
      ~reference
  in
  let static = cell (List.nth overload_modes 0) in
  let degraded = cell (List.nth overload_modes 2) in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  if degraded.o_ok <= 0 then
    fail "degraded mode completed nothing within deadline";
  if degraded.o_shed <= 0 then fail "shedding never engaged";
  if degraded.o_spilled <= 0 then fail "spill never engaged";
  List.iter
    (fun p ->
      if p.o_restarts > 0 then
        fail "%s cell crashed/restarted %d worker(s)" p.o_mode p.o_restarts;
      if not p.o_deterministic then
        fail "%s cell diverged from the sequential reference" p.o_mode)
    [ static; degraded ];
  if not !ok then exit 1;
  Printf.printf
    "smoke ok: %d/%d in-deadline under a %d req/s skewed burst (static \
     baseline %d/%d), %d shed + %d spilled, no worker crashes, responses \
     byte-identical\n"
    degraded.o_ok degraded.o_offered rate static.o_ok static.o_offered
    degraded.o_shed degraded.o_spilled

(* ------------------------------------------------------------------ *)
(* Daemon: the socket front door under sustained concurrent load       *)
(* ------------------------------------------------------------------ *)

module Dm = Tabseg_daemon.Daemon
module Dproto = Tabseg_daemon.Protocol
module Dclient = Tabseg_daemon.Client
module Dload = Tabseg_daemon.Loadgen

(* Same trick as the overload bench: a handful of site labels over one
   shared input, and workers that model the service time — the bench
   measures the socket edge, the pipelining and the drain choreography,
   not the segmenter. *)
let daemon_labels = Array.init 8 (fun i -> Printf.sprintf "daemon-site-%02d" i)
let daemon_sites input = Array.map (fun label -> (label, input)) daemon_labels

let daemon_expected reference =
  Array.to_list (Array.map (fun label -> (label, reference)) daemon_labels)

let daemon_config ?auth_token ?site_quota ~service_s listen =
  {
    Dm.default_config with
    Dm.listen;
    auth_token;
    gateway =
      {
        Gw.default_config with
        Gw.procs = 2;
        site_quota_rps = site_quota;
        service = modeled_service service_s;
      };
  }

(* Counter snapshot over the wire — the daemon is a separate process,
   so its registry is only reachable through the Stats frame. *)
let daemon_stat ?auth_token address name =
  match Dclient.connect ~client:"bench-stats" ?auth_token address with
  | Error e -> failwith (Dclient.connect_error_message e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Dclient.close c)
    @@ fun () ->
    (match Dclient.stats c with
    | Ok stats -> ( try List.assoc name stats with Not_found -> nan)
    | Error e -> failwith (Dclient.error_message e))

type daemon_point = {
  d_transport : string;  (* "unix" | "tcp" *)
  d_conns : int;
  d_pipeline : int;
  d_offered : int;
  d_ok : int;
  d_failed : int;
  d_rps : float;
  d_p50_ms : float;
  d_p95_ms : float;
  d_p99_ms : float;
  d_mismatches : int;
  d_restarts : int;
}

(* One (transport, conns) cell: a fresh daemon process (2 gateway
   workers), then [conns] concurrent connections in closed loop
   keeping [pipeline] requests outstanding each, every Ok reply checked
   byte-for-byte against the sequential in-process reference. *)
let daemon_cell ~transport ~conns ~pipeline ~service_s ~duration_s ~input
    ~expected =
  let dir = temp_store_dir "tabseg_daemon" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let listen =
    match transport with
    | "tcp" -> Dproto.Tcp ("127.0.0.1", 0)
    | _ -> Dproto.Unix_socket (Filename.concat dir "bench.sock")
  in
  let handle = Dm.spawn ~config:(daemon_config ~service_s listen) () in
  Fun.protect ~finally:(fun () -> ignore (Dm.stop handle)) @@ fun () ->
  let config =
    {
      Dload.default_config with
      Dload.address = handle.Dm.address;
      connections = conns;
      mode = Dload.Closed_loop { pipeline };
      duration_s;
      sites = daemon_sites input;
      zipf_exponent = 1.1;
      expected;
    }
  in
  match Dload.run config with
  | Error why -> failwith ("daemon bench: " ^ why)
  | Ok stats ->
    let restarts =
      int_of_float (daemon_stat handle.Dm.address "gateway.worker_restarts")
    in
    {
      d_transport = transport;
      d_conns = conns;
      d_pipeline = pipeline;
      d_offered = stats.Dload.offered;
      d_ok = stats.Dload.ok;
      d_failed = stats.Dload.failed;
      d_rps = stats.Dload.rps;
      d_p50_ms = stats.Dload.p50_ms;
      d_p95_ms = stats.Dload.p95_ms;
      d_p99_ms = stats.Dload.p99_ms;
      d_mismatches = stats.Dload.mismatches;
      d_restarts = restarts;
    }

type daemon_quota_point = {
  q_client : string;  (* "naive" | "retry" *)
  q_offered : int;
  q_ok : int;
  q_retried : int;
  q_recovered : int;
  q_abandoned : int;
  q_goodput : float;  (* ok over the shared fixed horizon *)
  q_mismatches : int;
}

(* The quota cell: a burst several times over the per-site admission
   quota, then a drain window long enough for the token buckets to
   refill. Both clients get the same offered load and the same time
   budget (arrival window + drain), so goodput-over-horizon isolates
   the one difference: honouring the retry-after hint recovers the
   rejected work, abandoning it does not. *)
let daemon_quota_cell ~retry ~quota_rps ~rate ~burst_s ~drain_s ~input
    ~expected =
  let dir = temp_store_dir "tabseg_daemon" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let listen = Dproto.Unix_socket (Filename.concat dir "bench.sock") in
  let handle =
    Dm.spawn
      ~config:(daemon_config ~site_quota:quota_rps ~service_s:0. listen)
      ()
  in
  Fun.protect ~finally:(fun () -> ignore (Dm.stop handle)) @@ fun () ->
  let config =
    {
      Dload.default_config with
      Dload.address = handle.Dm.address;
      connections = 4;
      mode = Dload.Open_loop { rate };
      duration_s = burst_s;
      drain_timeout_s = drain_s;
      sites = Array.sub (daemon_sites input) 0 4;
      retry_quota = retry;
      max_retries = 6;
      expected;
    }
  in
  match Dload.run config with
  | Error why -> failwith ("daemon quota bench: " ^ why)
  | Ok stats ->
    {
      q_client = (if retry then "retry" else "naive");
      q_offered = stats.Dload.offered;
      q_ok = stats.Dload.ok;
      q_retried = stats.Dload.retried;
      q_recovered = stats.Dload.recovered;
      q_abandoned = stats.Dload.abandoned;
      q_goodput = float_of_int stats.Dload.ok /. (burst_s +. drain_s);
      q_mismatches = stats.Dload.mismatches;
    }

let daemon_json ~procs ~service_s ~duration_s ~quota_rps ~rate ~burst_s
    ~drain_s points naive retry =
  let point_json p =
    Printf.sprintf
      "    {\"transport\": \"%s\", \"conns\": %d, \"pipeline\": %d, \
       \"offered\": %d, \"ok\": %d, \"failed\": %d, \"rps\": %.1f, \
       \"p50_ms\": %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f, \
       \"mismatches\": %d, \"restarts\": %d}"
      p.d_transport p.d_conns p.d_pipeline p.d_offered p.d_ok p.d_failed
      p.d_rps p.d_p50_ms p.d_p95_ms p.d_p99_ms p.d_mismatches p.d_restarts
  in
  let quota_json q =
    Printf.sprintf
      "{\"offered\": %d, \"ok\": %d, \"retried\": %d, \"recovered\": %d, \
       \"abandoned\": %d, \"goodput_rps\": %.1f, \"mismatches\": %d}"
      q.q_offered q.q_ok q.q_retried q.q_recovered q.q_abandoned q.q_goodput
      q.q_mismatches
  in
  Printf.sprintf
    "{\n  \"bench\": \"daemon.serving\",\n  \"procs\": %d,\n  \
     \"service_ms\": %.1f,\n  \"duration_s\": %.2f,\n  \"sites\": %d,\n  \
     \"zipf_exponent\": 1.1,\n  \"sweep\": [\n%s\n  ],\n  \"quota\": {\n    \
     \"site_quota_rps\": %.1f,\n    \"rate\": %.1f,\n    \"burst_s\": \
     %.2f,\n    \"drain_s\": %.2f,\n    \"sites\": 4,\n    \"naive\": %s,\n    \
     \"retry\": %s,\n    \"recovery_ratio\": %.2f\n  }\n}\n"
    procs (service_s *. 1000.) duration_s
    (Array.length daemon_labels)
    (String.concat ",\n" (List.map point_json points))
    quota_rps rate burst_s drain_s (quota_json naive) (quota_json retry)
    (retry.q_goodput /. Float.max naive.q_goodput 1e-9)

(* The daemon benchmark: closed-loop connection sweep (1/8/16 conns,
   pipelined ×4) over a Unix socket plus one TCP cell, then the
   naive-vs-retry quota comparison. *)
let daemon_bench ?(json = false) () =
  section "Daemon: socket front door under concurrent connections";
  let service_s = 0.005 and duration_s = 1.5 in
  let quota_rps = 30. and rate = 600. and burst_s = 0.5 and drain_s = 4.0 in
  Printf.printf
    "(procs=2, service %.0f ms, closed loop ×%.1f s per cell, Zipf(1.1) \
     over %d site labels, replies checked against the sequential \
     reference)\n"
    (service_s *. 1000.) duration_s
    (Array.length daemon_labels);
  let input = overload_input () in
  let reference = modeled_reference input in
  let expected = daemon_expected reference in
  let points =
    List.map
      (fun (transport, conns, pipeline) ->
        daemon_cell ~transport ~conns ~pipeline ~service_s ~duration_s ~input
          ~expected)
      [ ("unix", 1, 4); ("unix", 8, 4); ("unix", 16, 4); ("tcp", 8, 4) ]
  in
  Printf.printf "%-5s %5s %8s %7s %5s %6s %8s %8s %8s %8s %3s\n" "trans"
    "conns" "pipeline" "offered" "ok" "fail" "rps" "p50ms" "p95ms" "p99ms"
    "ok?";
  List.iter
    (fun p ->
      Printf.printf "%-5s %5d %8d %7d %5d %6d %8.1f %8.2f %8.2f %8.2f %3s\n"
        p.d_transport p.d_conns p.d_pipeline p.d_offered p.d_ok p.d_failed
        p.d_rps p.d_p50_ms p.d_p95_ms p.d_p99_ms
        (if p.d_mismatches = 0 && p.d_restarts = 0 then "yes" else "NO"))
    points;
  Printf.printf
    "\nquota %.0f req/s/site × 4 sites, burst %.0f req/s for %.1f s, %.1f s \
     to drain:\n"
    quota_rps rate burst_s drain_s;
  let naive =
    daemon_quota_cell ~retry:false ~quota_rps ~rate ~burst_s ~drain_s ~input
      ~expected
  in
  let retry =
    daemon_quota_cell ~retry:true ~quota_rps ~rate ~burst_s ~drain_s ~input
      ~expected
  in
  List.iter
    (fun q ->
      Printf.printf
        "%-6s offered %4d  ok %4d  retried %4d  recovered %4d  abandoned \
         %4d  goodput %6.1f req/s\n"
        q.q_client q.q_offered q.q_ok q.q_retried q.q_recovered q.q_abandoned
        q.q_goodput)
    [ naive; retry ];
  Printf.printf "retry/naive goodput ratio: %.2f\n"
    (retry.q_goodput /. Float.max naive.q_goodput 1e-9);
  if json then begin
    let path = "BENCH_daemon.json" in
    let oc = open_out path in
    output_string oc
      (daemon_json ~procs:2 ~service_s ~duration_s ~quota_rps ~rate ~burst_s
         ~drain_s points naive retry);
    close_out oc;
    Printf.printf "\nwrote %s\n" path
  end;
  (points, naive, retry)

(* The per-PR daemon guard: one real daemon process, 8 concurrent
   pipelined connections for a second, every reply byte-identical to the
   in-process reference, no worker restarts, graceful SIGTERM stop. *)
let daemon_smoke () =
  section
    "Daemon smoke: 8 connections, byte-identical replies, clean drain";
  let input = overload_input () in
  let reference = modeled_reference input in
  let dir = temp_store_dir "tabseg_daemon" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let listen = Dproto.Unix_socket (Filename.concat dir "smoke.sock") in
  let handle = Dm.spawn ~config:(daemon_config ~service_s:0.002 listen) () in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  let stats, restarts =
    Fun.protect
      ~finally:(fun () ->
        match Dm.stop handle with
        | 0 -> ()
        | code -> fail "daemon exited %d after SIGTERM (want 0)" code)
    @@ fun () ->
    let config =
      {
        Dload.default_config with
        Dload.address = handle.Dm.address;
        connections = 8;
        mode = Dload.Closed_loop { pipeline = 4 };
        duration_s = 1.0;
        sites = daemon_sites input;
        zipf_exponent = 1.1;
        expected = daemon_expected reference;
      }
    in
    match Dload.run config with
    | Error why ->
      fail "loadgen failed: %s" why;
      (None, 0)
    | Ok stats ->
      ( Some stats,
        int_of_float
          (daemon_stat handle.Dm.address "gateway.worker_restarts") )
  in
  (match stats with
  | None -> ()
  | Some stats ->
    if stats.Dload.ok <= 0 then fail "no request completed";
    if stats.Dload.failed > 0 then
      fail "%d request(s) failed under plain load" stats.Dload.failed;
    if stats.Dload.mismatches > 0 then
      fail "%d reply(ies) diverged from the sequential reference"
        stats.Dload.mismatches;
    if restarts > 0 then fail "%d worker restart(s) under load" restarts;
    if !ok then
      Printf.printf
        "smoke ok: %d/%d replies over 8 pipelined connections, \
         byte-identical, %d restarts, clean drain\n"
        stats.Dload.ok stats.Dload.offered restarts);
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Wrapper bootstrap (extension): one segmented page wraps the site     *)
(* ------------------------------------------------------------------ *)

let wrapper_bootstrap () =
  section
    "Wrapper bootstrap (extension): induce a wrapper from page 1's \
     segmentation, extract page 2 without detail pages";
  Printf.printf "%-22s %-10s %-26s %-26s\n" "Site" "wrapper"
    "page 2 via wrapper" "page 2 via full pipeline";
  List.iter
    (fun site ->
      let generated = Sites.generate site in
      let list_pages, detail_pages =
        Sites.segmentation_input generated ~page_index:0
      in
      let prepared =
        Tabseg.Pipeline.prepare { Tabseg.Pipeline.list_pages; detail_pages }
      in
      let segmentation = Tabseg.Csp_segmenter.segment prepared in
      let page2 = List.nth generated.Sites.pages 1 in
      let wrapper_cell, wrapper_score =
        match
          Tabseg_wrapper.Row_wrapper.induce
            ~page:prepared.Tabseg.Pipeline.page ~segmentation
        with
        | None -> ("none", "-")
        | Some wrapper ->
          let rows =
            Tabseg_wrapper.Row_wrapper.apply wrapper page2.Sites.list_html
          in
          ( Printf.sprintf "%s" wrapper.Tabseg_wrapper.Row_wrapper.marker,
            Format.asprintf "%a" Metrics.pp_prf
              (Scorer.score ~truth:page2.Sites.truth
                 (Tabseg_wrapper.Row_wrapper.to_segmentation rows)) )
      in
      let full_score =
        let result =
          segment_page ~method_:Tabseg.Api.Csp generated ~page_index:1
        in
        Format.asprintf "%a" Metrics.pp_prf
          (Scorer.score ~truth:page2.Sites.truth
             result.Tabseg.Api.segmentation)
      in
      Printf.printf "%-22s %-10s %-26s %-26s\n" site.Sites.name wrapper_cell
        wrapper_score full_score)
    Sites.all;
  Printf.printf
    "\nOne detail-page-assisted segmentation buys a wrapper that extracts \
     every further page of the site for free.\n"

(* ------------------------------------------------------------------ *)
(* Timing (Bechamel)                                                   *)
(* ------------------------------------------------------------------ *)

let timing () =
  section "Timing: \"exceedingly fast, a few seconds in all cases\"";
  let open Bechamel in
  let generated = Sites.generate (Sites.find "AlleghenyCounty") in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index:0
  in
  let input = { Tabseg.Pipeline.list_pages; detail_pages } in
  let prepared = Tabseg.Pipeline.prepare input in
  let tests =
    [
      Test.make ~name:"pipeline (tokenize+template+observe)"
        (Staged.stage (fun () -> ignore (Tabseg.Pipeline.prepare input)));
      Test.make ~name:"csp segmentation"
        (Staged.stage (fun () ->
             ignore (Tabseg.Csp_segmenter.segment prepared)));
      Test.make ~name:"probabilistic segmentation (period)"
        (Staged.stage (fun () ->
             ignore (Tabseg.Prob_segmenter.segment prepared)));
      Test.make ~name:"probabilistic segmentation (base)"
        (Staged.stage (fun () ->
             ignore
               (Tabseg.Prob_segmenter.segment
                  ~config:Tabseg.Prob_segmenter.base_config prepared)));
    ]
  in
  let grouped = Test.make_grouped ~name:"tabseg" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 1.0) () in
  let raw_results = Benchmark.all cfg instances grouped in
  let results =
    List.map
      (fun instance ->
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance raw_results)
      instances
  in
  List.iter
    (fun by_test ->
      Hashtbl.iter
        (fun test_name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ nanoseconds ] ->
            Printf.printf "%-52s %12.3f ms/run\n" test_name
              (nanoseconds /. 1e6)
          | Some _ | None ->
            Printf.printf "%-52s (no estimate)\n" test_name)
        by_test)
    results

(* ------------------------------------------------------------------ *)
(* Corpus: sampled site families at scale through Serve.Service        *)
(* ------------------------------------------------------------------ *)

module Corpus_family = Tabseg_corpus.Family
module Corpus_harness = Tabseg_corpus.Harness

(* Row counts stay log-uniform up to 10^5 (the sampler's full range);
   only the first [siblings + 1] list pages of a huge site are ever
   materialized, so total row count shapes pagination, not bench cost. *)
let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some value -> (
    match int_of_string_opt value with
    | Some n when n > 0 -> n
    | Some _ | None ->
      Printf.eprintf "invalid %s: %s\n" name value;
      exit 1)

(* Per-family micro-F reference from the committed BENCH_corpus.json
   (1000 sites, seed 7001). [corpus_bench] re-checks these at full
   corpus scale with a tight margin; [corpus_smoke]'s 24-site sample
   gets a wider one (tiny per-family populations are noisier).
   Regenerate with `make bench-corpus` and update from the JSON when
   the pipeline's accuracy profile legitimately moves. *)
let family_micro_f_reference =
  [
    ("blocks/flat", 0.9718);
    ("blocks/nested", 0.9656);
    ("freeform/flat", 0.9678);
    ("freeform/nested", 0.9647);
    ("grid/flat", 0.9747);
    ("grid/nested", 0.9838);
    ("numbered-blocks/flat", 0.9722);
    ("numbered-blocks/nested", 0.9755);
    ("numbered-grid/flat", 0.9662);
    ("numbered-grid/nested", 0.9609);
  ]

(* Calls [fail family micro floor] for every sampled family whose
   micro-F sits below its reference minus [epsilon]; families absent
   from the sample are skipped. *)
let check_family_floors ~epsilon ~fail (report : Corpus_harness.report) =
  List.iter
    (fun (fs : Corpus_harness.family_summary) ->
      match
        List.assoc_opt fs.Corpus_harness.fs_family family_micro_f_reference
      with
      | None -> ()
      | Some benched ->
        let floor = benched -. epsilon in
        let micro = Metrics.f_measure fs.Corpus_harness.fs_counts in
        if micro < floor then fail fs.Corpus_harness.fs_family micro floor)
    report.Corpus_harness.families

let corpus_bench ?(json = false) ?sites ?(seed = 7001) () =
  let sites =
    match sites with
    | Some n -> n
    | None -> env_int "TABSEG_CORPUS_SITES" 1000
  in
  section
    (Printf.sprintf "Corpus: %d sampled sites through Serve.Service" sites);
  let max_rows_per_page = env_int "TABSEG_CORPUS_MAX_PAGE" 12 in
  let params =
    { Corpus_family.default_params with sites; seed; max_rows_per_page }
  in
  let specs = Corpus_family.sample params in
  let siblings = env_int "TABSEG_CORPUS_SIBLINGS" 2 in
  let config = { Corpus_harness.default_config with siblings } in
  let report = Corpus_harness.evaluate ~config specs in
  print_string (Corpus_harness.render_report report);
  (* The per-family floors only mean something at the scale and seed
     they were benched at; a down-scaled TABSEG_CORPUS_SITES run skips
     them rather than failing on sampling noise. *)
  if sites >= 1000 && seed = 7001 then begin
    let failures = ref 0 in
    check_family_floors ~epsilon:0.01
      ~fail:(fun family micro floor ->
        incr failures;
        Printf.printf
          "FLOOR FAILURE: family %-22s micro-F %.4f below floor %.4f\n"
          family micro floor)
      report;
    if !failures > 0 then exit 1;
    Printf.printf "per-family micro-F floors hold (reference - 0.01)\n"
  end
  else
    Printf.printf
      "per-family floors skipped (%d sites, seed %d; floors assume 1000 \
       sites, seed 7001)\n"
      sites seed;
  if json then begin
    let path = "BENCH_corpus.json" in
    let oc = open_out path in
    output_string oc (Corpus_harness.report_json ~params ~config report);
    close_out oc;
    Printf.printf "wrote %s\n" path
  end;
  report

(* The per-PR corpus guard: a small fixed-seed corpus must evaluate
   without service errors, hold an F1 floor, and produce the same
   accuracy digest twice in a row (the determinism contract the corpus
   sampler promises). *)
let corpus_smoke () =
  section "Corpus smoke: fixed seed, F1 floor, deterministic digest";
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  let params = { Corpus_family.default_params with sites = 24; seed = 11 } in
  let specs = Corpus_family.sample params in
  let report = Corpus_harness.evaluate specs in
  let again = Corpus_harness.evaluate specs in
  if report.Corpus_harness.sites <> params.Corpus_family.sites then
    fail "expected %d sites, evaluated %d" params.Corpus_family.sites
      report.Corpus_harness.sites;
  if report.Corpus_harness.errors <> 0 then
    fail "%d service errors on a clean corpus" report.Corpus_harness.errors;
  let f1_p50 = report.Corpus_harness.f1.Corpus_harness.d_p50 in
  if f1_p50 < 0.6 then fail "median F1 %.3f below the 0.6 floor" f1_p50;
  (* A 24-site sample puts only 2-3 sites in each family, so the smoke
     margin is wide — one mis-segmented row swings a tiny family by
     several points. It still catches a family falling off a cliff; the
     tight (-0.01) enforcement runs at 1000 sites in [corpus_bench]. *)
  check_family_floors ~epsilon:0.10
    ~fail:(fun family micro floor ->
      fail "family %s micro-F %.4f below smoke floor %.4f" family micro floor)
    report;
  if report.Corpus_harness.digest <> again.Corpus_harness.digest then
    fail "accuracy digest not deterministic: %s vs %s"
      report.Corpus_harness.digest again.Corpus_harness.digest;
  if not !ok then exit 1;
  Printf.printf
    "smoke ok: %d sites, median F1 %.3f, digest %s reproduced\n"
    report.Corpus_harness.sites f1_p50 report.Corpus_harness.digest

(* ------------------------------------------------------------------ *)
(* Streaming: time-to-first-record vs batch on a cold 10^5-row site    *)
(* ------------------------------------------------------------------ *)

module Stream_engine = Tabseg_stream.Engine
module Stream_source = Tabseg_stream.Source
module Stream_runner = Tabseg_stream.Runner
module Stream_frame = Tabseg_stream.Frame

(* One seeded corpus family pinned to 10^5 rows (TABSEG_STREAM_ROWS to
   shrink locally): the site batch segmentation must crawl end to end
   before emitting anything, which is exactly the latency streaming is
   built to beat. *)
let stream_bench_spec () =
  let params =
    {
      Corpus_family.default_params with
      Corpus_family.sites = 1;
      seed = 47;
      max_rows = 4_000;
      max_rows_per_page = 10;
    }
  in
  {
    (List.hd (Corpus_family.sample params)) with
    Corpus_family.sp_name = "stream-bench";
    sp_rows = env_int "TABSEG_STREAM_ROWS" 100_000;
    sp_rows_per_page = 25;
  }

(* Lazy crawl: pages are generated only as the engine pulls them, so
   time-to-first-record includes exactly the crawl prefix streaming
   actually needs. *)
let stream_lazy_source spec ~units =
  let next = Corpus_family.page_source ~max_pages:units spec in
  let queue = Queue.create () in
  fun () ->
    if not (Queue.is_empty queue) then Some (Queue.pop queue)
    else
      match next () with
      | None -> None
      | Some page ->
        Queue.add
          (Stream_source.List_page
             { html = page.Corpus_family.list_html; segment = true })
          queue;
        List.iter
          (fun html -> Queue.add (Stream_source.Detail_page html) queue)
          page.Corpus_family.detail_htmls;
        Some (Queue.pop queue)

let stream_drain source =
  let rec go acc =
    match source () with None -> List.rev acc | Some p -> go (p :: acc)
  in
  go []

let stream_percentile sorted q =
  if Array.length sorted = 0 then 0.
  else
    let rank =
      int_of_float (ceil (q *. float_of_int (Array.length sorted))) - 1
    in
    sorted.(max 0 (min rank (Array.length sorted - 1)))

(* One cold repetition: batch = crawl everything, then segment; stream
   = same site through the engine off the lazy crawl, clocking the
   first record and sampling live words at each unit close. *)
let stream_rep ~config ~units spec =
  let batch_started = Unix.gettimeofday () in
  let pages = stream_drain (stream_lazy_source spec ~units) in
  let reference = Stream_runner.batch_reference ~config pages in
  let batch_s = Unix.gettimeofday () -. batch_started in
  Gc.compact ();
  let baseline = (Gc.stat ()).Gc.live_words in
  let live_hwm = ref 0 in
  let ttfr = ref None in
  let stream_started = Unix.gettimeofday () in
  let folded =
    Stream_runner.fold ~config
      ~on_event:(function
        | Stream_frame.Record _ when !ttfr = None ->
          ttfr := Some (Unix.gettimeofday () -. stream_started)
        | Stream_frame.Unit_done _ ->
          live_hwm :=
            max !live_hwm ((Gc.stat ()).Gc.live_words - baseline)
        | _ -> ())
      (stream_lazy_source spec ~units)
  in
  let stream_s = Unix.gettimeofday () -. stream_started in
  let identical =
    List.length folded.Stream_runner.outcomes = List.length reference
    && List.for_all2
         (fun streamed batch ->
           Stream_runner.outcome_digest streamed
           = Stream_runner.outcome_digest batch)
         folded.Stream_runner.outcomes reference
  in
  ( batch_s,
    stream_s,
    Option.value ~default:batch_s !ttfr,
    folded.Stream_runner.summary.Stream_frame.live_tokens_hwm,
    !live_hwm,
    identical )

let stream_bench ?(json = false) () =
  let spec = stream_bench_spec () in
  let units = env_int "TABSEG_STREAM_UNITS" 10 in
  let reps = env_int "TABSEG_STREAM_REPS" 5 in
  section
    (Printf.sprintf
       "Stream: TTFR vs batch, cold %d-row site (%d units, %d reps)"
       spec.Corpus_family.sp_rows units reps);
  let config =
    { Stream_engine.default_config with Stream_engine.head_window = 3 }
  in
  let cells = List.init reps (fun _ -> stream_rep ~config ~units spec) in
  let column f = Array.of_list (List.map f cells) in
  let sorted f =
    let c = column f in
    Array.sort compare c;
    c
  in
  let batch = sorted (fun (b, _, _, _, _, _) -> b) in
  let stream = sorted (fun (_, s, _, _, _, _) -> s) in
  let ttfr = sorted (fun (_, _, t, _, _, _) -> t) in
  let tokens_hwm =
    List.fold_left max 0 (List.map (fun (_, _, _, k, _, _) -> k) cells)
  in
  let words_hwm =
    List.fold_left max 0 (List.map (fun (_, _, _, _, w, _) -> w) cells)
  in
  let identical = List.for_all (fun (_, _, _, _, _, i) -> i) cells in
  let ms x = x *. 1e3 in
  let batch_p50 = stream_percentile batch 0.5 in
  let ttfr_p50 = stream_percentile ttfr 0.5 in
  let ratio = if batch_p50 > 0. then ttfr_p50 /. batch_p50 else 1. in
  Printf.printf "%-28s %10s %10s %10s\n" "" "p50 ms" "p95 ms" "max ms";
  List.iter
    (fun (label, s) ->
      Printf.printf "%-28s %10.1f %10.1f %10.1f\n" label
        (ms (stream_percentile s 0.5))
        (ms (stream_percentile s 0.95))
        (ms s.(Array.length s - 1)))
    [
      ("batch total (crawl+segment)", batch);
      ("stream total", stream);
      ("time to first record", ttfr);
    ];
  Printf.printf "ttfr p50 / batch p50:    %.3f\n" ratio;
  Printf.printf "live tokens hwm:         %d\n" tokens_hwm;
  Printf.printf "live words hwm:          %d\n" words_hwm;
  Printf.printf "byte-identical to batch: %b\n" identical;
  if not identical then begin
    Printf.printf "STREAM FAILURE: stream outcomes differ from batch\n";
    exit 1
  end;
  if ratio >= 0.25 then begin
    Printf.printf
      "STREAM FAILURE: ttfr p50 is %.1f%% of batch total (need < 25%%)\n"
      (100. *. ratio);
    exit 1
  end;
  if json then begin
    let path = "BENCH_stream.json" in
    let buffer = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
    let dist label s =
      add
        "  \"%s_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"max\": %.3f},\n"
        label
        (ms (stream_percentile s 0.5))
        (ms (stream_percentile s 0.95))
        (ms s.(Array.length s - 1))
    in
    add "{\n";
    add "  \"bench\": \"stream\",\n";
    add "  \"rows\": %d,\n" spec.Corpus_family.sp_rows;
    add "  \"units\": %d,\n" units;
    add "  \"reps\": %d,\n" reps;
    dist "batch_total" batch;
    dist "stream_total" stream;
    dist "ttfr" ttfr;
    add "  \"ttfr_over_batch_p50\": %.4f,\n" ratio;
    add "  \"ttfr_under_quarter_batch\": %b,\n" (ratio < 0.25);
    add "  \"live_tokens_hwm\": %d,\n" tokens_hwm;
    add "  \"live_words_hwm\": %d,\n" words_hwm;
    add "  \"live_words_bounded\": %b,\n" (words_hwm < 16_000_000);
    add "  \"byte_identical\": %b\n" identical;
    add "}\n";
    let oc = open_out path in
    Buffer.output_buffer oc buffer;
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

(* The per-PR streaming guard: every built-in site and a 200-site
   seeded corpus sample must stream byte-identically to the batch
   segmentation under both methods — streaming is a delivery schedule,
   never a different computation. *)
let stream_smoke () =
  section "Stream smoke: byte-identity, 12 built-in sites + 200 corpus sites";
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  let methods = [ Tabseg.Api.Csp; Tabseg.Api.Probabilistic ] in
  let check label method_ input =
    let config =
      { Stream_engine.default_config with Stream_engine.method_ }
    in
    let records = ref 0 in
    let outcome, _summary =
      Stream_runner.stream_input ~config
        ~on_record:(fun _ -> incr records)
        input
    in
    let stream_digest = Stream_runner.outcome_digest outcome in
    let batch_digest =
      Stream_runner.outcome_digest
        (Tabseg.Api.segment_result ~method_ input)
    in
    if stream_digest <> batch_digest then
      fail "%s (%s): stream digest %s, batch digest %s" label
        (Tabseg.Api.method_name method_)
        stream_digest batch_digest;
    (match outcome with
    | Ok result ->
      let expected =
        List.length result.Tabseg.Api.segmentation.Tabseg.Segmentation.records
      in
      if !records <> expected then
        fail "%s (%s): streamed %d records, batch has %d" label
          (Tabseg.Api.method_name method_)
          !records expected
    | Error _ -> ())
  in
  let builtin = ref 0 in
  List.iter
    (fun site ->
      incr builtin;
      let generated = Sites.generate site in
      let list_pages, detail_pages =
        Sites.segmentation_input generated ~page_index:0
      in
      let input = { Tabseg.Pipeline.list_pages; detail_pages } in
      List.iter (fun m -> check site.Sites.name m input) methods)
    Sites.all;
  let specs =
    Corpus_family.sample
      {
        Corpus_family.default_params with
        Corpus_family.sites = 200;
        seed = 401;
        max_rows = 600;
        max_rows_per_page = 10;
      }
  in
  List.iter
    (fun spec ->
      let generated = Corpus_family.generate ~max_pages:3 spec in
      let list_pages, detail_pages =
        Corpus_family.segmentation_input generated ~page_index:0
          ~max_siblings:2
      in
      let input = { Tabseg.Pipeline.list_pages; detail_pages } in
      List.iter
        (fun m -> check spec.Corpus_family.sp_name m input)
        methods)
    specs;
  if not !ok then exit 1;
  Printf.printf
    "smoke ok: %d built-in + %d corpus sites byte-identical under both \
     methods\n"
    !builtin (List.length specs)

(* ------------------------------------------------------------------ *)
(* CLI smoke: one answer from every serving branch of `tabseg auto`     *)
(* ------------------------------------------------------------------ *)

(* Run the CLI with [args]: how it exited and what it printed. *)
let run_cli exe args =
  let out = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let printed = In_channel.input_all out in
  (Unix.close_process_in out, printed)

(* For every site `tabseg sites` lists, `tabseg auto -s SITE` must print
   the same bytes by default (one in-process Service), through the
   gateway's forked workers (--procs 2), and through an in-process
   Service over a persistent store, cold and then warm. *)
let cli_smoke () =
  section "CLI smoke: tabseg auto, default = --procs 2 = --store cold/warm";
  (* the CLI dune builds beside this executable: _build/default/bin/
     next to _build/default/bench/ *)
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "tabseg_cli.exe")
  in
  if not (Sys.file_exists exe) then begin
    Printf.printf
      "SMOKE FAILURE: %s not built (dune build bin/tabseg_cli.exe)\n" exe;
    exit 1
  end;
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  let sites =
    match run_cli exe [ "sites" ] with
    | Unix.WEXITED 0, printed ->
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | name :: _ when name <> "" -> Some name
          | _ -> None)
        (String.split_on_char '\n' printed)
    | _ ->
      fail "tabseg sites did not exit 0";
      []
  in
  if sites = [] then fail "tabseg sites listed no site";
  List.iter
    (fun site ->
      let dir = temp_store_dir "tabseg_cli" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let auto label extra =
        match run_cli exe ([ "auto"; "-s"; site ] @ extra) with
        | Unix.WEXITED 0, printed -> Some printed
        | _ ->
          fail "%s, %s: tabseg auto did not exit 0" site label;
          None
      in
      match auto "default" [] with
      | None -> ()
      | Some default ->
        List.iter
          (fun (label, extra) ->
            match auto label extra with
            | Some printed when printed <> default ->
              fail "%s, %s: other bytes than the default run" site label
            | Some _ | None -> ())
          [
            ("--procs 2", [ "--procs"; "2" ]);
            ("--store cold", [ "--store"; dir ]);
            ("--store warm", [ "--store"; dir ]);
          ])
    sites;
  if not !ok then exit 1;
  Printf.printf
    "smoke ok: %d sites, tabseg auto byte-identical by default, with --procs 2 \
     and with --store cold and warm\n"
    (List.length sites)

(* ------------------------------------------------------------------ *)
(* Lint runtime guard                                                  *)
(* ------------------------------------------------------------------ *)

(* The interprocedural dataflow pass (TS008-TS012) runs a summary
   fixpoint over every compilation unit; an accidental widening there
   could turn `make check` from sub-second to minutes without any test
   noticing. This guard runs both analyzer passes over the full repo
   (lib/ bin/ bench/, same roots as `make lint`), fails on any
   unsuppressed finding, and enforces a hard wall-clock budget. *)
let lint_budget_s = 10.0

let lint_smoke ~json () =
  section "Lint smoke: TS001-TS012 over the full repo, runtime budget";
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        ok := false;
        Printf.printf "SMOKE FAILURE: %s\n" message)
      fmt
  in
  let module Lint = Tabseg_analyze.Lint in
  let module Flow = Tabseg_analyze.Flow in
  let module Taint = Tabseg_analyze.Taint in
  let rec ml_files_under path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.concat_map (fun entry ->
             if
               String.length entry > 0 && (entry.[0] = '.' || entry.[0] = '_')
             then []
             else ml_files_under (Filename.concat path entry))
    else if Filename.check_suffix path ".ml" then [ path ]
    else []
  in
  let roots = List.filter Sys.file_exists [ "lib"; "bin"; "bench" ] in
  if roots = [] then fail "no source roots found (run from the repo root)";
  let files = List.concat_map ml_files_under roots in
  let started = Unix.gettimeofday () in
  let syntactic = Lint.lint_files files in
  let syntactic_s = Unix.gettimeofday () -. started in
  let dataflow_started = Unix.gettimeofday () in
  let dataflow = Taint.analyze (List.map Flow.scan_file files) in
  let dataflow_s = Unix.gettimeofday () -. dataflow_started in
  let elapsed = Unix.gettimeofday () -. started in
  let findings = syntactic @ dataflow in
  List.iter (fun f -> Printf.printf "%s\n" (Lint.render f)) findings;
  if findings <> [] then
    fail "%d unsuppressed finding(s) over %d files" (List.length findings)
      (List.length files);
  if elapsed > lint_budget_s then
    fail "full-repo lint took %.2fs, budget is %.0fs" elapsed lint_budget_s;
  if json then begin
    let path = "BENCH_lint.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"files\": %d,\n\
      \  \"findings\": %d,\n\
      \  \"syntactic_s\": %.4f,\n\
      \  \"dataflow_s\": %.4f,\n\
      \  \"total_s\": %.4f,\n\
      \  \"budget_s\": %.1f\n\
       }\n"
      (List.length files) (List.length findings) syntactic_s dataflow_s
      elapsed lint_budget_s;
    close_out oc;
    Printf.printf "\nwrote %s\n" path
  end;
  if not !ok then exit 1;
  Printf.printf
    "smoke ok: %d files clean (TS001-TS012) in %.2fs (syntactic %.2fs, \
     dataflow %.2fs; budget %.0fs)\n"
    (List.length files) elapsed syntactic_s dataflow_s lint_budget_s

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, targets = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  let json = List.mem "--json" flags in
  (match List.filter (fun f -> f <> "--json") flags with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown flag(s): %s\n" (String.concat " " unknown);
    exit 1);
  let targets =
    match targets with
    | _ :: _ -> targets
    | [] ->
      [ "table1"; "table2"; "table3"; "table4"; "clean17"; "figure1";
        "figure23";
        "ablation"; "ablation-csp"; "vision"; "sweep"; "faults"; "wrapper";
        "baseline"; "store"; "timing" ]
  in
  let table4_cache = ref None in
  List.iter
    (fun target ->
      match target with
      | "table1" -> table1 ()
      | "table2" -> table2 ()
      | "table3" -> table3 ()
      | "table4" -> table4_cache := Some (table4 ())
      | "clean17" -> clean17 ?precomputed:!table4_cache ()
      | "figure1" -> figure1 ()
      | "figure23" -> figure23 ()
      | "ablation" -> ablation ()
      | "ablation-csp" -> ablation_csp ()
      | "vision" -> vision ()
      | "sweep" -> sweep ()
      | "faults" -> fault_sweep ()
      | "faults-smoke" -> fault_sweep ~smoke:true ()
      | "serve-smoke" -> serve_smoke ()
      | "store" -> store_bench ~json ()
      | "store-smoke" -> store_smoke ()
      | "gateway" -> ignore (gateway_bench ~json ())
      | "gateway-smoke" -> gateway_smoke ()
      | "overload" -> ignore (overload_bench ~json ())
      | "overload-smoke" -> overload_smoke ()
      | "daemon" -> ignore (daemon_bench ~json ())
      | "daemon-smoke" -> daemon_smoke ()
      | "corpus" -> ignore (corpus_bench ~json ())
      | "corpus-smoke" -> corpus_smoke ()
      | "stream" -> stream_bench ~json ()
      | "stream-smoke" -> stream_smoke ()
      | "cli-smoke" -> cli_smoke ()
      | "lint-smoke" -> lint_smoke ~json ()
      | "wrapper" -> wrapper_bootstrap ()
      | "baseline" -> baseline ()
      | "timing" -> timing ()
      | other ->
        Printf.eprintf "unknown bench target: %s\n" other;
        exit 1)
    targets
