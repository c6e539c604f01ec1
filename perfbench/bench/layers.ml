(* The traced replay of one segmentation: the front half and the chosen
   segmenter, called stage by stage through each layer's public functions,
   every call wrapped in a span. It takes the same decisions as
   [Tabseg.Pipeline.prepare] (template size and slot-cover fallbacks to the
   whole page), and each traced run checks that its segmentation equals
   the one the system under test returned for the same input. *)

open Tabseg_token
open Tabseg_template
open Tabseg_extract
module Trace = Perfbench_measure.Trace
module Pipeline = Tabseg.Pipeline

type info = {
  segmentation : Tabseg.Segmentation.t;
  fallback : bool;  (** no usable template: the whole page was the slot *)
  candidates : int;  (** (extract, candidate record) pairs *)
  em_iterations : int;  (** 0 for the CSP *)
  relaxed : bool;  (** the strict CSP failed and the relaxed one ran *)
}

let locate_table trace pages page =
  let config = Pipeline.default_config in
  if List.length pages < 2 then (None, 0)
  else begin
    let template =
      Trace.span trace "template.induce" (fun () -> Template.induce pages)
    in
    let size = Template.size template in
    if size < config.Pipeline.min_template_tokens then (None, size)
    else begin
      let slots =
        Trace.span trace "template.slots" (fun () -> Template.slots template page)
      in
      let total =
        List.fold_left (fun acc slot -> acc + Slot.word_count slot) 0 slots
      in
      match Slot.table_slot slots with
      | None -> (None, size)
      | Some slot ->
        let cover =
          if total = 0 then 0.
          else float_of_int (Slot.word_count slot) /. float_of_int total
        in
        if cover < config.Pipeline.min_slot_cover then (None, size)
        else (Some slot, size)
    end
  end

let prepare trace (input : Pipeline.input) =
  let tokenize html =
    Trace.span trace "token.tokenize" (fun () -> Tokenizer.tokenize html)
  in
  let pages = List.map tokenize input.Pipeline.list_pages in
  let details = List.map tokenize input.Pipeline.detail_pages in
  let page, others =
    match pages with
    | page :: others -> (page, others)
    | [] -> invalid_arg "Layers.prepare: no list pages"
  in
  let located, template_size = locate_table trace pages page in
  let table_slot, notes =
    match located with
    | Some slot -> (slot, [])
    | None ->
      ( Slot.whole_page page,
        Tabseg.Segmentation.[ Template_problem; Entire_page_used ] )
  in
  let extracts =
    Trace.span trace "extract.of_slot" (fun () -> Extract.of_slot table_slot)
  in
  let observation =
    Trace.span trace "extract.observe" (fun () ->
        Observation.build ~other_list_pages:others ~extracts ~details ())
  in
  { Pipeline.page; table_slot; observation; notes; template_size }

let segment trace ~method_ input =
  let prepared = prepare trace input in
  let segmentation, em_iterations =
    match method_ with
    | Tabseg.Api.Csp ->
      ( Trace.span trace "csp.solve" (fun () ->
            Tabseg.Csp_segmenter.segment prepared),
        0 )
    | Tabseg.Api.Probabilistic ->
      let segmentation, diagnostics =
        Trace.span trace "hmm.solve" (fun () ->
            Tabseg.Prob_segmenter.segment prepared)
      in
      (segmentation, diagnostics.Tabseg.Prob_segmenter.iterations)
  in
  {
    segmentation;
    fallback =
      List.mem Tabseg.Segmentation.Entire_page_used prepared.Pipeline.notes;
    candidates = Observation.candidate_count prepared.Pipeline.observation;
    em_iterations;
    relaxed =
      List.mem Tabseg.Segmentation.Relaxed_constraints
        segmentation.Tabseg.Segmentation.notes;
  }

(* The per-layer metrics every traced run prints, in BENCHMARK.json order;
   a workload fills in the ones its layers reach and the rest read 0. *)
let names =
  [
    ("hmm.solve_ms", "ms");
    ("hmm.em_iterations", "count");
    ("extract.candidates", "count");
    ("token.tokenize_ms", "ms");
    ("template.induce_ms", "ms");
    ("template.fallback_ratio", "ratio");
    ("extract.observe_ms", "ms");
    ("csp.solve_ms", "ms");
    ("csp.relaxed_ratio", "ratio");
    ("serve.worker_ms", "ms");
    ("serve.request_key_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("store.log_bytes", "bytes");
    ("daemon.edge_ms", "ms");
    ("daemon.request_bytes", "bytes");
    ("daemon.reply_bytes", "bytes");
    ("daemon.codec_ms", "ms");
    ("gateway.requests_failed", "count");
    ("gateway.worker_restarts", "count");
    ("daemon.protocol_errors", "count");
    ("stream.feed_ms", "ms");
    ("stream.live_tokens_hwm", "count");
    ("stream.template_refinements", "count");
    ("trace.overhead_ms", "ms");
  ]

let metrics values =
  List.map
    (fun (name, unit_) ->
      {
        Perfbench_measure.Report.name;
        unit_;
        value = Option.value (List.assoc_opt name values) ~default:0.;
      })
    names

(* Self time per item, in ms, of the spans named [span_names]. *)
let self_ms spans ~items span_names =
  let totals = Trace.self_times spans in
  let total =
    List.fold_left
      (fun acc name ->
        acc +. Option.value (List.assoc_opt name totals) ~default:0.)
      0. span_names
  in
  if items = 0 then 0. else total *. 1e3 /. float_of_int items

(* The layer split of a traced run of the front half and segmenters. *)
let stage_values spans ~items (infos : info list) =
  let n = float_of_int (max 1 (List.length infos)) in
  let share f = float_of_int (List.length (List.filter f infos)) /. n in
  let mean f = float_of_int (List.fold_left (fun a i -> a + f i) 0 infos) /. n in
  [
    ("hmm.solve_ms", self_ms spans ~items [ "hmm.solve" ]);
    ("hmm.em_iterations", mean (fun i -> i.em_iterations));
    ("extract.candidates", mean (fun i -> i.candidates));
    ("token.tokenize_ms", self_ms spans ~items [ "token.tokenize" ]);
    ("template.induce_ms", self_ms spans ~items [ "template.induce"; "template.slots" ]);
    ("template.fallback_ratio", share (fun i -> i.fallback));
    ("extract.observe_ms", self_ms spans ~items [ "extract.of_slot"; "extract.observe" ]);
    ("csp.solve_ms", self_ms spans ~items [ "csp.solve" ]);
    ("csp.relaxed_ratio", share (fun i -> i.relaxed));
  ]

(* Span names for the stage timings the library reports on its own
   instrumentation bus (the stream engine's stages are not reachable
   through public calls). *)
let bus_span = function
  | "pipeline.tokenize" -> "token.tokenize"
  | "pipeline.template" -> "template.induce"
  | "pipeline.extract" -> "extract.observe"
  | "segment.csp" -> "csp.solve"
  | "segment.hmm" -> "hmm.solve"
  | other -> other
