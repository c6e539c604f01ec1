(* paper-prob: the paper's probabilistic segmenter on cold pages.

   One caller in a closed loop segments the 24 list pages of Table 4, in
   a seeded order, each through a fresh [Serve.Service] in its default
   (probabilistic) configuration and in a process of its own (see
   [page_probe]), so no page can be served from a cache. The HMM does
   nearly all of the work; the CSP, gateway and daemon do none.

   Four seeded corpus pages, stratified by predicted HMM cost, are
   segmented cold in the benchmark's process and scored, but kept out of
   the timing: their
   HMM cost spans two orders of magnitude from seed to seed, which would
   make every timing figure a property of the seed rather than of the
   code. *)

open Common
module Service = Tabseg_serve.Service
module Cache = Tabseg_serve.Cache

let corpus_pool = 48
let corpus_pages = 4

let corpus seed =
  Inputs.corpus_pages ~sample:1 ~seed ~sites:corpus_pool ~tag:"corpus" ()
  |> Inputs.stratified_by_hmm_cost ~k:corpus_pages

let request (page : Inputs.page) =
  { Service.id = page.Inputs.name; site = page.Inputs.name; input = page.Inputs.input }

let segment_cold page =
  let service = Service.create () in
  let response = Service.segment_one service (request page) in
  Service.shutdown service;
  response

(* Set-up: creating (and shutting down) a default service, the median of
   11 batches of 100. *)
let setup () =
  setup_median ~samples:11 ~batch:100 (fun () -> Service.shutdown (Service.create ()))

(* What a page probe reports: the page's time, the median of the
   calibration kernel timed three times before and three times after it,
   the set-up time measured in the same process, the probe's peak heap, a
   digest of the answer's rendering (None for a typed error) and the
   answer's accuracy counts. *)
type cold = {
  latency : float;
  kernel_s : float;
  setup_s : float;
  heap_mb : float;
  answer : string option;
  counts : Accuracy.M.counts;
}

(* The page probe, run as [perfbench --page-probe NAME] in a fresh process
   that generates only the page's site: the page starts from a heap of its
   own, not from one the pages before it left behind, and shares no
   memory with the process that started it. The set-up is measured first,
   and its garbage collected before the page. Prints one line for
   [segment_in_probe]. *)
let page_probe name =
  match Inputs.paper_page name with
  | None -> failwith ("no Table 4 page named " ^ name)
  | Some page -> (
    let setup_s = setup () in
    Gc.full_major ();
    let (response, latency), kernel_s =
      Calibration.around (fun () -> timed (fun () -> segment_cold page))
    in
    let measured = Printf.sprintf "%.17g %.17g %.17g %.17g" latency kernel_s setup_s (peak_heap_mb ()) in
    match response.Service.outcome with
    | Error _ -> measured ^ " error"
    | Ok result ->
      let segmentation = result.Tabseg.Api.segmentation in
      let c = Tabseg_eval.Scorer.score ~truth:page.Inputs.truth segmentation in
      Printf.sprintf "%s %s %d %d %d %d" measured
        (Digest.to_hex (Digest.string (render segmentation)))
        c.Accuracy.M.cor c.Accuracy.M.incor c.Accuracy.M.fn c.Accuracy.M.fp)

let segment_in_probe (page : Inputs.page) =
  let line = probe [ "--page-probe"; page.Inputs.name ] in
  let cold latency kernel_s setup_s heap_mb answer counts =
    {
      latency = float_of_string latency;
      kernel_s = float_of_string kernel_s;
      setup_s = float_of_string setup_s;
      heap_mb = float_of_string heap_mb;
      answer;
      counts;
    }
  in
  match String.split_on_char ' ' line with
  | [ latency; kernel_s; setup_s; heap_mb; "error" ] ->
    cold latency kernel_s setup_s heap_mb None Accuracy.M.zero
  | [ latency; kernel_s; setup_s; heap_mb; digest; cor; incor; fn; fp ] ->
    cold latency kernel_s setup_s heap_mb (Some digest)
      {
        Accuracy.M.cor = int_of_string cor;
        incor = int_of_string incor;
        fn = int_of_string fn;
        fp = int_of_string fp;
      }
  | _ -> failwith ("unreadable report from a page probe: " ^ line)

let untraced (run : run) pages corpus =
  let latencies = ref [] and scaled = ref [] in
  let failed = ref 0 and peak_mem_mb = ref 0. in
  let first_round = Hashtbl.create 32 and diverged = ref 0 in
  let accuracy = Accuracy.create () in
  (* Whole rounds only, so every run measures the same page mix, and a
     count fixed by [seconds] (one round per 10 s; a round takes 8-12 s on
     the 2-core host the benchmark was tuned on) so the sample size does
     not depend on the machine's speed. Three rounds put the tail's rank
     in the middle of one page's three timings, so the tail is that page's
     median rather than its slowest run. Every page runs in a process of
     its own (see [page_probe]), and its time is scaled by the kernel
     timed around it (see {!Calibration}). *)
  let rounds = ref 0 in
  let planned = max 1 (Float.to_int (run.seconds /. 10.)) in
  while !rounds < planned do
    List.iter
      (fun (page : Inputs.page) ->
        let cold = segment_in_probe page in
        Calibration.record cold.kernel_s;
        Setups.add ~setup_s:cold.setup_s ~kernel_s:cold.kernel_s;
        latencies := (page.Inputs.name, cold.latency) :: !latencies;
        scaled := (cold.latency *. Calibration.factor cold.kernel_s) :: !scaled;
        peak_mem_mb := Float.max !peak_mem_mb cold.heap_mb;
        match cold.answer with
        | None -> incr failed
        | Some answer -> (
          match Hashtbl.find_opt first_round page.Inputs.name with
          | None ->
            Hashtbl.replace first_round page.Inputs.name answer;
            Accuracy.add_counts accuracy cold.counts
          | Some first -> if first <> answer then incr diverged))
      pages;
    incr rounds
  done;
  List.iter
    (fun (page : Inputs.page) ->
      match (segment_cold page).Service.outcome with
      | Ok result -> Accuracy.add accuracy ~truth:page.Inputs.truth result.Tabseg.Api.segmentation
      | Error _ -> incr failed)
    corpus;
  (* the pages around the tail's rank, for the notes *)
  let by_time = List.sort (fun (_, a) (_, b) -> compare a b) !latencies in
  let latencies = Array.of_list (List.map snd by_time) in
  let tail_p, tail = tail_or_fail "page latency" latencies ~cap:0.9 in
  let tail_rank = Stats.nearest_rank (Array.length latencies) tail_p in
  let around_tail =
    List.filteri (fun i _ -> abs (i + 1 - tail_rank) <= 2) by_time
    |> List.map (fun (name, s) -> Printf.sprintf "%s %.1f" name (ms s))
    |> String.concat ", "
  in
  let attempted = Array.length latencies + List.length corpus in
  let per_second samples = float_of_int (Array.length samples) /. Array.fold_left ( +. ) 0. samples in
  let scaled = Array.of_list !scaled in
  let metrics, scale_notes =
    end_to_end
      ~raw:
        {
          setup_s = Setups.median Setups.raw;
          throughput = per_second latencies;
          p50_ms = ms (Stats.median latencies);
          tail_ms = ms tail;
        }
      ~reported:
        {
          setup_s = Setups.median Setups.scaled;
          throughput = per_second scaled;
          p50_ms = ms (Stats.median scaled);
          tail_ms = ms (snd (tail_or_fail "page latency" scaled ~cap:0.9));
        }
      ~calibration:
        ("each page, and the set-up measured with it, by the kernel timed in its probe: "
        ^ Calibration.describe ())
      ~peak_mem_mb:!peak_mem_mb
      ~micro_f1:(Accuracy.micro_f1 accuracy)
  in
  {
    attempted;
    failed = !failed + !diverged;
    checks =
      [
        ("every page segmented without a typed error", !failed = 0);
        ("repeated rounds segment identically", !diverged = 0);
      ];
    metrics;
    notes =
      [
        ("pages",
          Printf.sprintf "%d timed per round, %d round(s); %d corpus pages scored untimed"
            (List.length pages) !rounds (List.length corpus));
        percentile_note "latency" latencies ~cap:0.9;
        ("around the tail rank", "unscaled ms: " ^ around_tail);
        ("throughput_per_s", "cold pages segmented per second of page time, Service creation included");
        ("setup_s", "median over the page probes of Service.create + shutdown, each the median of 11 samples of 100");
        ("peak_mem_mb", "peak major heap of a page's process, highest over the timed pages: the page's site, the service and its work");
      ]
      @ scale_notes;
  }

(* The traced run replays every page stage by stage and checks the replay
   against the service's own answer for the page. *)
let traced (run : run) pages =
  let trace = Trace.create () in
  let method_ = Tabseg.Api.Probabilistic in
  let infos = ref [] and mismatched = ref 0 and failed = ref 0 in
  let untraced_s = ref [] and traced_s = ref [] and worker_s = ref [] in
  let hits = ref 0 in
  List.iteri
    (fun i (page : Inputs.page) ->
      let started = now () in
      let response = segment_cold page in
      untraced_s := (now () -. started) :: !untraced_s;
      worker_s := response.Service.latency_s :: !worker_s;
      if response.Service.cache_hit then incr hits;
      let info, seconds =
        timed (fun () ->
            Trace.span trace ~request:i "request" (fun () ->
                ignore
                  (Trace.span trace "serve.request_key" (fun () ->
                       Cache.request_key ~method_ page.Inputs.input));
                Layers.segment trace ~method_ page.Inputs.input))
      in
      traced_s := seconds :: !traced_s;
      infos := info :: !infos;
      match response.Service.outcome with
      | Error _ -> incr failed
      | Ok result ->
        if render result.Tabseg.Api.segmentation <> render info.Layers.segmentation
        then incr mismatched)
    pages;
  let spans = Trace.spans trace in
  let items = List.length pages in
  let page_time =
    List.fold_left
      (fun acc s -> if s.Trace.name = "request" then acc +. (s.Trace.stop -. s.Trace.start) else acc)
      0. spans
  in
  let hmm_share = Layers.self_ms spans ~items:1 [ "hmm.solve" ] /. 1e3 /. page_time in
  let values =
    Layers.stage_values spans ~items !infos
    @ [
        ("serve.worker_ms", ms (Stats.mean (Array.of_list !worker_s)));
        ("serve.request_key_ms", Layers.self_ms spans ~items [ "serve.request_key" ]);
        ("serve.cache_hit_ratio", float_of_int !hits /. float_of_int items);
        ( "trace.overhead_ms",
          ms
            (Stats.median (Array.of_list !traced_s)
            -. Stats.median (Array.of_list !untraced_s)) );
      ]
  in
  {
    attempted = items;
    failed = !failed + !mismatched;
    checks =
      [
        ("every page segmented without a typed error", !failed = 0);
        ("traced replay equals the service's segmentation", !mismatched = 0);
      ];
    metrics = Layers.metrics values;
    notes =
      [
        ("hmm share of page time", Printf.sprintf "%.3f" hmm_share);
        ("spans", write_spans run spans);
      ];
  }

let run (run : run) =
  let pages = shuffle ~seed:run.seed (Inputs.paper_pages ()) in
  if run.trace then traced run pages else untraced run pages (corpus run.seed)
