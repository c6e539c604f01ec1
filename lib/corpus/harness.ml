module Metrics = Tabseg_eval.Metrics
module Scorer = Tabseg_eval.Scorer
module Service = Tabseg_serve.Service

type config = {
  method_ : Tabseg.Api.method_;
  cache : bool;
  siblings : int;
  batch : int;
  worst_k : int;
}

let default_config =
  {
    method_ = Tabseg.Api.Probabilistic;
    cache = true;
    siblings = 3;
    batch = 24;
    worst_k = 8;
  }

type site_result = {
  r_name : string;
  r_family : string;
  r_seed : int;
  r_rows : int;
  r_scored : int;
  r_counts : Metrics.counts;
  r_f1 : float;
  r_latency_s : float;
  r_error : string option;
}

type distribution = {
  d_mean : float;
  d_p5 : float;
  d_p25 : float;
  d_p50 : float;
  d_p75 : float;
  d_p95 : float;
  d_histogram : int array;
}

let distribution values =
  if values = [] then invalid_arg "Harness.distribution: empty sample";
  let sorted = List.sort compare values in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  let percentile q =
    (* nearest-rank: the smallest value with at least q% of the sample at
       or below it *)
    let rank = int_of_float (ceil (q /. 100. *. float_of_int n)) in
    arr.(max 0 (min (n - 1) (rank - 1)))
  in
  let mean = List.fold_left ( +. ) 0. values /. float_of_int n in
  let histogram = Array.make 10 0 in
  List.iter
    (fun v ->
      let bin = max 0 (min 9 (int_of_float (v *. 10.))) in
      histogram.(bin) <- histogram.(bin) + 1)
    values;
  {
    d_mean = mean;
    d_p5 = percentile 5.;
    d_p25 = percentile 25.;
    d_p50 = percentile 50.;
    d_p75 = percentile 75.;
    d_p95 = percentile 95.;
    d_histogram = histogram;
  }

type family_summary = {
  fs_family : string;
  fs_sites : int;
  fs_counts : Metrics.counts;
  fs_f1_mean : float;
}

type report = {
  sites : int;
  errors : int;
  total : Metrics.counts;
  precision : distribution;
  recall : distribution;
  f1 : distribution;
  families : family_summary list;
  worst : site_result list;
  results : site_result list;
  seconds : float;
  sites_per_sec : float;
  digest : string;
}

(* --------------------------- corpus inputs --------------------------- *)

let site_input ?(siblings = 3) spec =
  let generated = Family.generate ~max_pages:(siblings + 1) spec in
  let list_pages, detail_pages =
    Family.segmentation_input generated ~page_index:0 ~max_siblings:siblings
  in
  let truth =
    match generated.Family.pages with
    | page :: _ -> page.Family.truth
    | [] -> []
  in
  ( spec.Family.sp_name,
    { Tabseg.Pipeline.list_pages; detail_pages },
    truth )

let site_inputs ?(siblings = 3) specs =
  List.map (site_input ~siblings) specs

(* ----------------------------- evaluation ---------------------------- *)

let all_fn truth =
  { Metrics.cor = 0; incor = 0; fn = List.length truth; fp = 0 }

let score_response spec truth (response : Service.response) =
  let counts, error =
    match response.outcome with
    | Ok result -> (Scorer.score ~truth result.Tabseg.Api.segmentation, None)
    | Error e -> (all_fn truth, Some (Service.error_message e))
  in
  {
    r_name = spec.Family.sp_name;
    r_family = spec.Family.sp_family;
    r_seed = spec.Family.sp_seed;
    r_rows = spec.Family.sp_rows;
    r_scored = List.length truth;
    r_counts = counts;
    r_f1 = Metrics.f_measure counts;
    r_latency_s = response.latency_s;
    r_error = error;
  }

let rec chunks size = function
  | [] -> []
  | items ->
    let rec take n acc rest =
      match (n, rest) with
      | 0, _ | _, [] -> (List.rev acc, rest)
      | n, item :: rest -> take (n - 1) (item :: acc) rest
    in
    let chunk, rest = take size [] items in
    chunk :: chunks size rest

let evaluate_chunk config service specs =
  let prepared =
    List.map
      (fun spec ->
        let name, input, truth = site_input ~siblings:config.siblings spec in
        (spec, truth, { Service.id = name; site = name; input }))
      specs
  in
  let responses =
    Service.run_batch service (List.map (fun (_, _, r) -> r) prepared)
  in
  List.map2
    (fun (spec, truth, _) response -> score_response spec truth response)
    prepared responses

let family_summaries results =
  let table = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let sites, counts, f1_sum =
        match Hashtbl.find_opt table r.r_family with
        | Some existing -> existing
        | None -> (0, Metrics.zero, 0.)
      in
      Hashtbl.replace table r.r_family
        (sites + 1, Metrics.add counts r.r_counts, f1_sum +. r.r_f1))
    results;
  Hashtbl.fold
    (fun family (sites, counts, f1_sum) acc ->
      {
        fs_family = family;
        fs_sites = sites;
        fs_counts = counts;
        fs_f1_mean = f1_sum /. float_of_int (max 1 sites);
      }
      :: acc)
    table []
  |> List.sort (fun a b -> compare a.fs_family b.fs_family)

let accuracy_digest results =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buffer
        (Printf.sprintf "%s|%s|%d/%d/%d/%d\n" r.r_name r.r_family
           r.r_counts.Metrics.cor r.r_counts.Metrics.incor
           r.r_counts.Metrics.fn r.r_counts.Metrics.fp))
    results;
  Digest.to_hex (Digest.string (Buffer.contents buffer))

let evaluate ?(config = default_config) specs =
  if specs = [] then invalid_arg "Harness.evaluate: empty corpus";
  let service_config =
    {
      Service.default_config with
      method_ = config.method_;
      cache =
        (if config.cache then Service.default_config.Service.cache else None);
    }
  in
  let service = Service.create ~config:service_config () in
  let started = Unix.gettimeofday () in
  let results =
    Fun.protect
      ~finally:(fun () -> Service.shutdown service)
      (fun () ->
        chunks (max 1 config.batch) specs
        |> List.concat_map (evaluate_chunk config service))
  in
  let seconds = Unix.gettimeofday () -. started in
  let total = Metrics.total (List.map (fun r -> r.r_counts) results) in
  let per f = List.map (fun r -> f r.r_counts) results in
  let worst =
    List.stable_sort (fun a b -> compare a.r_f1 b.r_f1) results
    |> List.filteri (fun i _ -> i < config.worst_k)
  in
  {
    sites = List.length results;
    errors =
      List.length (List.filter (fun r -> r.r_error <> None) results);
    total;
    precision = distribution (per Metrics.precision);
    recall = distribution (per Metrics.recall);
    f1 = distribution (List.map (fun r -> r.r_f1) results);
    families = family_summaries results;
    worst;
    results;
    seconds;
    sites_per_sec = float_of_int (List.length results) /. Float.max 1e-9 seconds;
    digest = accuracy_digest results;
  }

(* ----------------------------- reporting ----------------------------- *)

let render_distribution name d =
  Printf.sprintf
    "%-9s mean=%.3f  p5=%.3f  p25=%.3f  p50=%.3f  p75=%.3f  p95=%.3f" name
    d.d_mean d.d_p5 d.d_p25 d.d_p50 d.d_p75 d.d_p95

let render_report report =
  let buffer = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "corpus: %d sites in %.1fs (%.1f sites/s), %d service errors"
    report.sites report.seconds report.sites_per_sec report.errors;
  line "micro:  P=%.3f R=%.3f F=%.3f  (Cor=%d InCor=%d FN=%d FP=%d)"
    (Metrics.precision report.total)
    (Metrics.recall report.total)
    (Metrics.f_measure report.total)
    report.total.Metrics.cor report.total.Metrics.incor
    report.total.Metrics.fn report.total.Metrics.fp;
  line "%s" (render_distribution "precision" report.precision);
  line "%s" (render_distribution "recall" report.recall);
  line "%s" (render_distribution "f1" report.f1);
  line "per family:";
  List.iter
    (fun fs ->
      line "  %-22s %4d sites  micro-F=%.3f  mean-F=%.3f" fs.fs_family
        fs.fs_sites
        (Metrics.f_measure fs.fs_counts)
        fs.fs_f1_mean)
    report.families;
  line "worst %d:" (List.length report.worst);
  List.iter
    (fun r ->
      line "  %-12s %-22s seed=%-9d rows=%-6d F=%.3f %d/%d/%d/%d%s" r.r_name
        r.r_family r.r_seed r.r_rows r.r_f1 r.r_counts.Metrics.cor
        r.r_counts.Metrics.incor r.r_counts.Metrics.fn r.r_counts.Metrics.fp
        (match r.r_error with None -> "" | Some e -> "  error: " ^ e))
    report.worst;
  line "digest: %s" report.digest;
  Buffer.contents buffer

(* ------------------------------- JSON -------------------------------- *)

let json_escape s =
  let buffer = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let json_distribution d =
  Printf.sprintf
    "{\"mean\": %.4f, \"p5\": %.4f, \"p25\": %.4f, \"p50\": %.4f, \"p75\": \
     %.4f, \"p95\": %.4f, \"histogram\": [%s]}"
    d.d_mean d.d_p5 d.d_p25 d.d_p50 d.d_p75 d.d_p95
    (String.concat ", "
       (Array.to_list (Array.map string_of_int d.d_histogram)))

let json_counts (c : Metrics.counts) =
  Printf.sprintf
    "{\"cor\": %d, \"incor\": %d, \"fn\": %d, \"fp\": %d, \"precision\": \
     %.4f, \"recall\": %.4f, \"f1\": %.4f}"
    c.cor c.incor c.fn c.fp (Metrics.precision c) (Metrics.recall c)
    (Metrics.f_measure c)

let report_json ~params ~config report =
  let buffer = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  add "{\n";
  add "  \"bench\": \"corpus\",\n";
  add
    "  \"params\": {\"sites\": %d, \"seed\": %d, \"min_rows\": %d, \
     \"max_rows\": %d, \"max_rows_per_page\": %d, \"min_fields\": %d, \
     \"max_fields\": %d, \"nested_p\": %.3f, \"optional_p\": %.3f, \
     \"missing_p\": %.3f, \"contamination\": %.3f},\n"
    params.Family.sites params.Family.seed params.Family.min_rows
    params.Family.max_rows params.Family.max_rows_per_page
    params.Family.min_fields params.Family.max_fields params.Family.nested_p
    params.Family.optional_p params.Family.missing_p
    params.Family.contamination;
  add
    "  \"config\": {\"method\": \"%s\", \"cache\": %b, \"siblings\": %d},\n"
    (Tabseg.Api.method_name config.method_)
    config.cache config.siblings;
  add "  \"sites\": %d,\n" report.sites;
  add "  \"errors\": %d,\n" report.errors;
  add "  \"micro\": %s,\n" (json_counts report.total);
  add "  \"precision\": %s,\n" (json_distribution report.precision);
  add "  \"recall\": %s,\n" (json_distribution report.recall);
  add "  \"f1\": %s,\n" (json_distribution report.f1);
  add "  \"families\": [\n";
  List.iteri
    (fun i fs ->
      add "    {\"family\": \"%s\", \"sites\": %d, \"micro\": %s, \
           \"f1_mean\": %.4f}%s\n"
        (json_escape fs.fs_family) fs.fs_sites (json_counts fs.fs_counts)
        fs.fs_f1_mean
        (if i = List.length report.families - 1 then "" else ","))
    report.families;
  add "  ],\n";
  add "  \"worst\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"name\": \"%s\", \"family\": \"%s\", \"seed\": %d, \"rows\": \
         %d, \"scored\": %d, \"f1\": %.4f, \"counts\": %s%s}%s\n"
        (json_escape r.r_name) (json_escape r.r_family) r.r_seed r.r_rows
        r.r_scored r.r_f1 (json_counts r.r_counts)
        (match r.r_error with
        | None -> ""
        | Some e -> Printf.sprintf ", \"error\": \"%s\"" (json_escape e))
        (if i = List.length report.worst - 1 then "" else ","))
    report.worst;
  add "  ],\n";
  add "  \"seconds\": %.3f,\n" report.seconds;
  add "  \"sites_per_sec\": %.3f,\n" report.sites_per_sec;
  add "  \"digest\": \"%s\"\n" report.digest;
  add "}\n";
  Buffer.contents buffer
