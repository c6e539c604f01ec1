(** Corpus-scale evaluation: run the full pipeline over a sampled corpus
    through one {!Tabseg_serve.Service} (so caching is exercised) and
    report accuracy {e distributions} — percentiles, histograms,
    per-family breakdowns and worst-k site digests — rather than the
    single mean the 12-site table gives.

    Scoring follows the paper's protocol on the first list page of every
    site: the page is segmented with the target page first plus a bounded
    number of sibling list pages, and {!Tabseg_eval.Scorer.score} compares
    the result against the generator's ground truth. *)

type config = {
  method_ : Tabseg.Api.method_;
  cache : bool;
  siblings : int;  (** extra list pages given to template induction *)
  batch : int;
      (** requests per [Service.run_batch] wave: the inputs generated and
          held at once *)
  worst_k : int;  (** how many worst sites the report digests *)
}

val default_config : config
(** Probabilistic, cache on, 3 siblings, batches of 24, worst 8. *)

type site_result = {
  r_name : string;
  r_family : string;
  r_seed : int;
  r_rows : int;  (** total site rows (page 0 carries [r_scored] of them) *)
  r_scored : int;  (** ground-truth records on the scored page *)
  r_counts : Tabseg_eval.Metrics.counts;
  r_f1 : float;
  r_latency_s : float;  (** in-worker segmentation time *)
  r_error : string option;  (** service error; counts are then all-FN *)
}

type distribution = {
  d_mean : float;
  d_p5 : float;
  d_p25 : float;
  d_p50 : float;
  d_p75 : float;
  d_p95 : float;
  d_histogram : int array;  (** 10 equal bins over [0, 1] *)
}

val distribution : float list -> distribution
(** Nearest-rank percentiles over the sample (exposed for tests).
    @raise Invalid_argument on the empty list. *)

type family_summary = {
  fs_family : string;
  fs_sites : int;
  fs_counts : Tabseg_eval.Metrics.counts;  (** micro totals *)
  fs_f1_mean : float;  (** mean of per-site F1 *)
}

type report = {
  sites : int;
  errors : int;  (** sites whose service call failed *)
  total : Tabseg_eval.Metrics.counts;  (** micro totals over all sites *)
  precision : distribution;
  recall : distribution;
  f1 : distribution;
  families : family_summary list;  (** sorted by family name *)
  worst : site_result list;  (** lowest-F1 sites, worst first *)
  results : site_result list;  (** every site, in corpus order *)
  seconds : float;  (** wall clock: generation + segmentation + scoring *)
  sites_per_sec : float;
  digest : string;
      (** MD5 over every site's name/family/counts, in corpus order —
          identical across runs iff the accuracy results are *)
}

val evaluate : ?config:config -> Family.spec list -> report

val site_inputs :
  ?siblings:int ->
  Family.spec list ->
  (string * Tabseg.Pipeline.input * string list list) list
(** [(name, page-0 input, page-0 truth)] per spec — the corpus-backed feed
    for the daemon load generator and the CLI. Default 3 siblings. *)

val render_report : report -> string
(** Human-readable summary (the library never prints; callers do). *)

val report_json :
  params:Family.params -> config:config -> report -> string
(** The BENCH_corpus.json payload: params echo, accuracy distributions,
    per-family breakdown, worst-k digests, throughput and the determinism
    digest. *)
