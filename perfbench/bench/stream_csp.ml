(* stream-csp: the streaming engine, one stream at a time.

   Large seeded corpus sites (1,000-4,000 rows, of which the first 40 list
   pages are streamed) are fed in crawl order through
   [Tabseg_stream.Engine] with the CSP, each list page followed by its
   detail pages. Pages are
   rendered between feed calls and only the feed calls are timed, so page
   generation stays off the clock. This is the workload of incremental
   matching and per-unit template re-induction under the live-token
   budget. *)

open Common
module Engine = Tabseg_stream.Engine
module Frame = Tabseg_stream.Frame
module Source = Tabseg_stream.Source
module Runner = Tabseg_stream.Runner
module Family = Tabseg_corpus.Family

let config = { Engine.default_config with Engine.method_ = Tabseg.Api.Csp }
let setup_samples = 21
let setup_every = 8  (* sites per set-up probe *)
let pool = 64
let strata = 8

(* Each site is streamed for its first [site_pages] list pages, so every
   site weighs the same in a run and a run covers tens of sites. *)
let site_pages = 40

(* Accuracy and peak memory are taken over the first six batches of sites,
   which every run streams, so they depend on the seed alone and not on
   how many sites the measuring time let through. *)
let scored_sites = 6 * strata

(* One unit in sixteen is compared with the batch path (plus every site's
   first unit): the stream must reproduce it byte for byte. *)
let checked ~seed ~site unit_index =
  unit_index = 0 || Hashtbl.hash (seed, site, unit_index) mod 16 = 0

type unit_summary = {
  index : int;
  error : bool;  (** a typed error instead of a segmentation *)
  mismatch : bool;  (** a checked unit that differs from the batch path *)
  fallback : bool;
  relaxed : bool;
  candidates : int;
}

type site_result = {
  records : int;
  feed_s : float;  (** summed duration of the feed calls *)
  calls : float list;  (** duration of every feed call *)
  ttfr_s : float option;  (** feed time until the first record *)
  units : unit_summary list;
  hwm : int;
  refinements : int;
}

(* The batch input a unit must reproduce, as [Tabseg_stream.Engine]
   defines it: the unit's page first, then the head window's other list
   pages, and the detail pages that followed it. *)
let batch_input ~head ~position ~html ~details =
  {
    Tabseg.Pipeline.list_pages = html :: List.filteri (fun i _ -> i <> position) head;
    detail_pages = details;
  }

(* Stream one site, scoring each unit as it completes and keeping only
   the pages a checked unit's batch comparison needs, so the heap holds
   what the engine holds. [wrap] encloses each feed call (the traced run
   puts a span around it); the clock reads around [wrap], so the span's
   cost shows as the traced run's overhead. *)
let stream_site ?(wrap = fun _ f -> f ()) ~seed ~site
    accuracy spec =
  let head_window = config.Engine.head_window in
  let records = ref 0 and ttfr = ref None and refinements = ref 0 in
  let summaries = ref [] and feed_s = ref 0. and calls = ref [] in
  let call_started = ref 0. in
  let truths = Hashtbl.create 64 and kept = Hashtbl.create 16 in
  let head = ref [] in
  let outcomes = ref [] in
  let on_event = function
    | Frame.Record _ ->
      incr records;
      if !ttfr = None then ttfr := Some (!feed_s +. (now () -. !call_started))
    | Frame.Unit_done { unit_index; outcome } ->
      (match (outcome, Hashtbl.find_opt truths unit_index) with
      | Ok result, Some truth ->
        Accuracy.add accuracy ~truth result.Tabseg.Api.segmentation
      | _ -> ());
      let digest =
        if checked ~seed ~site unit_index then Some (Runner.outcome_digest outcome)
        else None
      in
      outcomes := (unit_index, digest) :: !outcomes;
      let prepared_notes, notes, candidates =
        match outcome with
        | Ok r ->
          ( r.Tabseg.Api.prepared.Tabseg.Pipeline.notes,
            r.Tabseg.Api.segmentation.Tabseg.Segmentation.notes,
            Tabseg_extract.Observation.candidate_count
              r.Tabseg.Api.prepared.Tabseg.Pipeline.observation )
        | Error _ -> ([], [], 0)
      in
      summaries :=
        {
          index = unit_index;
          error = Result.is_error outcome;
          mismatch = false;
          fallback = List.mem Tabseg.Segmentation.Entire_page_used prepared_notes;
          relaxed = List.mem Tabseg.Segmentation.Relaxed_constraints notes;
          candidates;
        }
        :: !summaries
    | Frame.Template_refined _ -> incr refinements
  in
  let engine = Engine.create ~config ~on_event () in
  let feed name f =
    call_started := now ();
    wrap name f;
    let took = now () -. !call_started in
    feed_s := !feed_s +. took;
    calls := took :: !calls
  in
  let next = Family.page_source ~max_pages:site_pages spec in
  let rec loop position =
    match next () with
    | None -> ()
    | Some (page : Family.page) ->
      let html = page.Family.list_html in
      Hashtbl.replace truths position page.Family.truth;
      if position < head_window then head := !head @ [ html ];
      if checked ~seed ~site position then
        Hashtbl.replace kept position (html, page.Family.detail_htmls);
      feed "stream.feed_list" (fun () -> Engine.feed_list_page engine ~segment:true html);
      List.iter
        (fun html ->
          feed "stream.feed_detail" (fun () -> Engine.feed_detail_page engine html))
        page.Family.detail_htmls;
      Hashtbl.remove truths (position - head_window - 1);
      loop (position + 1)
  in
  loop 0;
  let summary = ref None in
  feed "stream.finish" (fun () -> summary := Some (Engine.finish engine));
  (* the batch path on every checked unit's derived input *)
  let mismatched =
    List.filter_map
      (fun (index, digest) ->
        match (digest, Hashtbl.find_opt kept index) with
        | Some digest, Some (html, details) ->
          let batch =
            Tabseg.Api.segment_result ~method_:config.Engine.method_
              (batch_input ~head:!head ~position:index ~html ~details)
          in
          if Runner.outcome_digest batch = digest then None else Some index
        | Some _, None -> Some index
        | None, _ -> None)
      !outcomes
  in
  {
    records = !records;
    feed_s = !feed_s;
    calls = !calls;
    ttfr_s = !ttfr;
    units =
      List.rev_map (fun u -> { u with mismatch = List.mem u.index mismatched }) !summaries;
    hwm = (match !summary with Some s -> s.Frame.live_tokens_hwm | None -> 0);
    refinements = !refinements;
  }

let sites seed =
  let batch = ref 0 and queue = ref [] in
  fun () ->
    (match !queue with
    | [] ->
      queue := Inputs.stream_specs ~sample:(100 + !batch) ~seed ~pool ~strata;
      incr batch
    | _ -> ());
    match !queue with
    | spec :: rest ->
      queue := rest;
      spec
    | [] -> assert false

(* Set-up: creating an engine. *)
let setup () =
  setup_median ~samples:setup_samples ~batch:1000 (fun () ->
      ignore (Sys.opaque_identity (Engine.create ~config ~on_event:ignore ())))

(* The set-up probe, run as [perfbench --setup-probe stream-csp] in a fresh
   process after every [setup_every]th site (see {!Common.Setups}): the
   set-up time and the kernel timed around it. *)
let setup_probe () =
  let setup_s, kernel_s = Calibration.around setup in
  Printf.sprintf "%.17g %.17g" setup_s kernel_s

let measure_setup () =
  match String.split_on_char ' ' (probe [ "--setup-probe"; "stream-csp" ]) with
  | [ setup_s; kernel_s ] ->
    Setups.add ~setup_s:(float_of_string setup_s) ~kernel_s:(float_of_string kernel_s)
  | _ -> failwith "unreadable report from a set-up probe"

let run (run : run) =
  let next_site = sites run.seed in
  let trace = Trace.create () in
  let recording = ref false in
  let subscription =
    if run.trace then
      Some
        (Tabseg.Instrument.subscribe (fun { Tabseg.Instrument.stage; seconds } ->
             if !recording then begin
               let stop = now () in
               Trace.record trace (Layers.bus_span stage) ~start:(stop -. seconds) ~stop
             end))
    else None
  in
  let accuracy = Accuracy.create () in
  let results = ref [] and feed_total = ref 0. and site = ref 0 in
  let untraced_calls = ref [] and peak_mem_mb = ref 0. in
  while !feed_total < run.seconds || !site < scored_sites do
    let spec = next_site () in
    let accuracy = if !site < scored_sites then accuracy else Accuracy.create () in
    let r =
      if run.trace then begin
        (* the same site untraced first, for the overhead baseline *)
        let plain = stream_site ~seed:run.seed ~site:!site (Accuracy.create ()) spec in
        untraced_calls := plain.calls @ !untraced_calls;
        recording := true;
        let traced =
          stream_site ~seed:run.seed ~site:!site accuracy spec
            ~wrap:(fun name f -> Trace.span trace ~request:!site name f)
        in
        recording := false;
        traced
      end
      else stream_site ~seed:run.seed ~site:!site accuracy spec
    in
    Calibration.sample ();
    if (not run.trace) && !site mod setup_every = 0 then measure_setup ();
    incr site;
    if !site = scored_sites then peak_mem_mb := peak_heap_mb ();
    feed_total := !feed_total +. r.feed_s;
    results := r :: !results
  done;
  Option.iter Tabseg.Instrument.unsubscribe subscription;
  let results = List.rev !results in
  let all_units = List.concat_map (fun r -> r.units) results in
  let count p = List.length (List.filter p all_units) in
  let units = List.length all_units in
  let errors = count (fun u -> u.error) and mismatches = count (fun u -> u.mismatch) in
  let records = List.fold_left (fun acc r -> acc + r.records) 0 results in
  let calls = Array.of_list (List.concat_map (fun r -> r.calls) results) in
  let ttfrs = Array.of_list (List.filter_map (fun r -> r.ttfr_s) results) in
  let checks =
    [
      ("every unit segmented without a typed error", errors = 0);
      ("checked units equal the batch segmentation byte for byte", mismatches = 0);
      ("every site emitted a first record", Array.length ttfrs = List.length results);
    ]
  in
  let common_notes =
    [
      ("sites", Printf.sprintf "%d sites, %d units, %d records, %.2f s of feed calls"
          (List.length results) units records !feed_total);
    ]
  in
  if run.trace then begin
    let spans = Trace.spans trace in
    let ok = List.filter (fun u -> not u.error) all_units in
    let n = float_of_int (max 1 (List.length ok)) in
    let share p = float_of_int (List.length (List.filter p ok)) /. n in
    let per_unit names = Layers.self_ms spans ~items:units names in
    let values =
      [
        ("hmm.solve_ms", per_unit [ "hmm.solve" ]);
        ("extract.candidates",
          float_of_int (List.fold_left (fun acc u -> acc + u.candidates) 0 ok) /. n);
        ("token.tokenize_ms", per_unit [ "token.tokenize" ]);
        ("template.induce_ms", per_unit [ "template.induce" ]);
        ("template.fallback_ratio", share (fun u -> u.fallback));
        ("extract.observe_ms", per_unit [ "extract.observe" ]);
        ("csp.solve_ms", per_unit [ "csp.solve" ]);
        ("csp.relaxed_ratio", share (fun u -> u.relaxed));
        ("stream.feed_ms", per_unit [ "stream.feed_list"; "stream.feed_detail"; "stream.finish" ]);
        ("stream.live_tokens_hwm", float_of_int (List.fold_left (fun acc r -> max acc r.hwm) 0 results));
        ("stream.template_refinements",
          float_of_int (List.fold_left (fun acc r -> acc + r.refinements) 0 results)
          /. float_of_int (List.length results));
        ("trace.overhead_ms",
          ms (Stats.median calls -. Stats.median (Array.of_list !untraced_calls)));
      ]
    in
    {
      attempted = units;
      failed = errors + mismatches;
      checks;
      metrics = Layers.metrics values;
      notes = common_notes @ [ ("spans", write_spans run spans) ];
    }
  end
  else begin
    let _, tail = tail_or_fail "feed call" calls ~cap:0.99 in
    let factor, calibration = Calibration.scale () in
    let raw =
      {
        setup_s = Setups.median Setups.raw;
        throughput = float_of_int records /. !feed_total;
        p50_ms = ms (Stats.median ttfrs);
        tail_ms = ms tail;
      }
    in
    let metrics, scale_notes =
      end_to_end ~raw
        ~reported:{ (scale_timings factor raw) with setup_s = Setups.median Setups.scaled }
        ~calibration:(calibration ^ "; setup_s: each probe by the kernel timed in it")
        ~peak_mem_mb:!peak_mem_mb
        ~micro_f1:(Accuracy.micro_f1 accuracy)
    in
    {
      attempted = units;
      failed = errors + mismatches;
      checks;
      metrics;
      notes =
        common_notes
        @ [
            ("throughput_per_s", "records emitted per second of feed calls");
            ("latency_p50_ms", Printf.sprintf "median time to first record over %d sites" (Array.length ttfrs));
            percentile_note "latency_tail_ms: feed call" calls ~cap:0.99;
            ("setup_s", Printf.sprintf "median over %d fresh processes, one after every %dth site, of the median Engine.create, %d samples of 1000 calls" (Setups.count ()) setup_every setup_samples);
            ("peak_mem_mb", Printf.sprintf "peak major heap of the process over the first %d sites: the engine, the page source and the checks" scored_sites);
            ("micro_f1", Printf.sprintf "over the units of the first %d sites" scored_sites);
          ]
        @ scale_notes;
    }
  end
