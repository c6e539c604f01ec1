(* tabseg — command-line interface.

   Subcommands:
     sites                        list the twelve synthetic sites
     generate -s SITE -o DIR      write a site's pages (and truth) to disk
     segment  -l PAGE... -d DETAIL... [-m csp|prob]
                                  segment raw HTML files
     eval     [-s SITE] [-m ...]  run and score synthetic sites *)

open Cmdliner
open Tabseg_sitegen
open Tabseg_eval

let method_conv =
  let parse = function
    | "csp" -> Ok Tabseg.Api.Csp
    | "prob" | "probabilistic" -> Ok Tabseg.Api.Probabilistic
    | other -> Error (`Msg (Printf.sprintf "unknown method %S" other))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (String.lowercase_ascii (Tabseg.Api.method_name m))
  in
  Arg.conv (parse, print)

let method_arg =
  let doc = "Segmentation method: $(b,csp) or $(b,prob)." in
  Arg.(value & opt method_conv Tabseg.Api.Csp & info [ "m"; "method" ] ~doc)

(* ------------------------------ sites ------------------------------ *)

let sites_cmd =
  let run () =
    let print_site tag site =
      Printf.printf "%-22s %-13s %s records/page, seed %d%s\n"
        site.Sites.name site.Sites.domain
        (String.concat "+"
           (List.map string_of_int site.Sites.records_per_page))
        site.Sites.seed tag
    in
    List.iter (print_site "") Sites.all;
    List.iter (print_site "  (demo)") Sites.demo_sites
  in
  Cmd.v
    (Cmd.info "sites" ~doc:"List the twelve synthetic evaluation sites")
    Term.(const run $ const ())

(* ----------------------------- generate ---------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let generate_cmd =
  let site_arg =
    let doc = "Site name (see $(b,tabseg sites))." in
    Arg.(required & opt (some string) None & info [ "s"; "site" ] ~doc)
  in
  let out_arg =
    let doc = "Output directory (created if missing)." in
    Arg.(value & opt string "." & info [ "o"; "out" ] ~doc)
  in
  let run site_name out =
    match Sites.find site_name with
    | exception Not_found ->
      Printf.eprintf "unknown site %S; try `tabseg sites`\n" site_name;
      exit 1
    | site ->
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let generated = Sites.generate site in
      List.iteri
        (fun p page ->
          write_file
            (Filename.concat out (Printf.sprintf "list_%d.html" p))
            page.Sites.list_html;
          List.iteri
            (fun i detail ->
              write_file
                (Filename.concat out (Printf.sprintf "detail_%d_%d.html" p i))
                detail)
            page.Sites.detail_htmls;
          let truth =
            String.concat "\n"
              (List.map (String.concat "\t") page.Sites.truth)
          in
          write_file
            (Filename.concat out (Printf.sprintf "truth_%d.tsv" p))
            truth)
        generated.Sites.pages;
      Printf.printf "wrote %s to %s\n" site.Sites.name out
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Write a synthetic site's pages to disk")
    Term.(const run $ site_arg $ out_arg)

(* ----------------------------- segment ----------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents

let segment_cmd =
  let lists_arg =
    let doc =
      "List-page HTML file; pass at least one, the first is segmented."
    in
    Arg.(non_empty & opt_all file [] & info [ "l"; "list" ] ~doc)
  in
  let details_arg =
    let doc = "Detail-page HTML file, in record (link) order." in
    Arg.(non_empty & opt_all file [] & info [ "d"; "detail" ] ~doc)
  in
  let run method_ lists details =
    let input =
      {
        Tabseg.Pipeline.list_pages = List.map read_file lists;
        detail_pages = List.map read_file details;
      }
    in
    let result = Tabseg.Api.segment ~method_ input in
    Format.printf "%a@." Tabseg.Segmentation.pp result.Tabseg.Api.segmentation
  in
  Cmd.v
    (Cmd.info "segment"
       ~doc:"Segment records in a list page given its detail pages")
    Term.(const run $ method_arg $ lists_arg $ details_arg)

(* ------------------------------- eval ------------------------------ *)

let eval_cmd =
  let site_arg =
    let doc = "Restrict to one site (default: all twelve)." in
    Arg.(value & opt (some string) None & info [ "s"; "site" ] ~doc)
  in
  let run method_ site_name =
    let sites =
      match site_name with
      | None -> Sites.all
      | Some name -> (
        match Sites.find name with
        | site -> [ site ]
        | exception Not_found ->
          Printf.eprintf "unknown site %S; try `tabseg sites`\n" name;
          exit 1)
    in
    let all_counts = ref [] in
    List.iter
      (fun site ->
        let generated = Sites.generate site in
        List.iteri
          (fun page_index page ->
            let list_pages, detail_pages =
              Sites.segmentation_input generated ~page_index
            in
            let input = { Tabseg.Pipeline.list_pages; detail_pages } in
            let result = Tabseg.Api.segment ~method_ input in
            let counts =
              Scorer.score ~truth:page.Sites.truth
                result.Tabseg.Api.segmentation
            in
            all_counts := counts :: !all_counts;
            Format.printf "%-22s page %d  %a  %a  notes: %s@."
              site.Sites.name (page_index + 1) Metrics.pp counts
              Metrics.pp_prf counts
              (String.concat ","
                 (List.map
                    (fun n ->
                      String.make 1 (Tabseg.Segmentation.note_letter n))
                    result.Tabseg.Api.segmentation.Tabseg.Segmentation.notes)))
          generated.Sites.pages)
      sites;
    let totals = Metrics.total !all_counts in
    Format.printf "%-22s         %a  %a@." "TOTAL" Metrics.pp totals
      Metrics.pp_prf totals
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Segment and score the synthetic sites")
    Term.(const run $ method_arg $ site_arg)

(* ---------------------------- reconstruct -------------------------- *)

let reconstruct_cmd =
  let lists_arg =
    let doc = "List-page HTML file (first = the page to segment)." in
    Arg.(non_empty & opt_all file [] & info [ "l"; "list" ] ~doc)
  in
  let details_arg =
    let doc = "Detail-page HTML file, in record order." in
    Arg.(non_empty & opt_all file [] & info [ "d"; "detail" ] ~doc)
  in
  let out_arg =
    let doc = "Write CSV here instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc)
  in
  let run method_ lists details out =
    let detail_htmls = List.map read_file details in
    let input =
      {
        Tabseg.Pipeline.list_pages = List.map read_file lists;
        detail_pages = detail_htmls;
      }
    in
    let result = Tabseg.Api.segment ~method_ input in
    let table =
      Tabseg.Relational.reconstruct
        ~details:(List.map Tabseg_token.Tokenizer.tokenize detail_htmls)
        ~segmentation:result.Tabseg.Api.segmentation
    in
    let csv = Tabseg.Relational.to_csv table in
    match out with
    | None -> print_string csv
    | Some path ->
      write_file path csv;
      Printf.printf "wrote %d rows to %s\n" (List.length table.Tabseg.Relational.rows) path
  in
  Cmd.v
    (Cmd.info "reconstruct"
       ~doc:"Segment a list page and reconstruct the relation behind the \
             site as CSV")
    Term.(const run $ method_arg $ lists_arg $ details_arg $ out_arg)

(* -------------------------- serving flags -------------------------- *)

(* The serving flags of `tabseg auto` and `tabseg serve`, as one gateway
   configuration; only the default of --procs differs. *)
let gateway_config method_ procs cache_mb store_dir spill_threshold
    site_quota shed deadline =
  let open Tabseg_serve in
  let open Tabseg_gateway in
  {
    Gateway.default_config with
    Gateway.procs = max 1 procs;
    deadline_s = deadline;
    spill_threshold;
    site_quota_rps = site_quota;
    shed;
    service =
      {
        Service.default_config with
        Service.method_;
        cache =
          (if cache_mb > 0 then Some { Cache.capacity_mb = cache_mb }
           else None);
        store_dir;
      };
  }

let gateway_term ~procs =
  let procs_arg =
    let doc =
      "Worker processes behind the gateway (a master and forked workers \
       over socket RPC, requests sharded by site affinity). Results are \
       byte-identical to a sequential run. At 1, $(b,tabseg auto) \
       segments in this process, with no gateway, and $(b,tabseg serve) \
       forks one worker, so the daemon's own loop never segments."
    in
    Arg.(value & opt int procs & info [ "procs" ] ~doc ~docv:"N")
  in
  let cache_mb_arg =
    let doc =
      "Budget (MB) of each service's template cache. It also bounds the \
       gateway master's memo of reply bodies, which answers a repeated \
       input without a worker. 0 turns both off."
    in
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~doc ~docv:"MB")
  in
  let store_arg =
    let doc =
      "Back the caches with a persistent store in this directory \
       (created if missing; conventionally NAME.tabstore). Induced \
       templates and results written there survive restarts and are \
       shared with other tabseg processes and among a gateway's \
       workers: the first to grab the lock writes, the rest read and \
       offload their writes back to it."
    in
    Arg.(
      value & opt (some string) None & info [ "store" ] ~doc ~docv:"DIR")
  in
  let spill_arg =
    let doc =
      "Adaptive affinity at the gateway. When a request's site-affinity \
       worker already holds more than $(docv) requests, route it to the \
       least-loaded worker instead (counted as gateway.spilled). \
       Results stay byte-identical; only tail latency changes. Unset: \
       strict affinity, never spill."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "spill-threshold" ] ~doc ~docv:"N")
  in
  let quota_arg =
    let doc =
      "Per-site admission quota at the gateway. Each site gets a token \
       bucket refilled at $(docv) requests/second (burst = one second of \
       quota), so one hot site cannot monopolize the workers; excess \
       requests fail with a typed quota error carrying a retry-after \
       hint, which $(b,tabseg loadgen --retry) honours. Unset: \
       unlimited."
    in
    Arg.(
      value & opt (some float) None & info [ "site-quota" ] ~doc ~docv:"RPS")
  in
  let shed_arg =
    let doc =
      "With --deadline: deadline-aware load shedding at the gateway. \
       Reject at admission any request predicted (per-worker EWMA of \
       service time times queue depth) to miss its deadline, so worker \
       queues hold only winnable work. Off by default: requests queue \
       and may burn their whole deadline before failing."
    in
    Arg.(value & flag & info [ "shed" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-request deadline at the gateway, in seconds; a request not \
       answered in time fails with a typed deadline error. Unset: wait \
       forever."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~doc ~docv:"SECONDS")
  in
  Term.(
    const gateway_config $ method_arg $ procs_arg $ cache_mb_arg $ store_arg
    $ spill_arg $ quota_arg $ shed_arg $ deadline_arg)

(* ------------------------------- auto ------------------------------ *)

(* Cache effectiveness for the --metrics dump: the registry's histograms
   say how long things took, this says how often the caches answered. *)
let cache_stats_dump service =
  match Tabseg_serve.Service.cache_stats service with
  | None -> ""
  | Some stats ->
    let open Tabseg_serve in
    let buffer = Buffer.create 256 in
    let s = stats.Cache.templates in
    Buffer.add_string buffer
      (Printf.sprintf
         "cache:\n  %-12s %6d hits %6d misses  (%5.1f%% hit rate)  %d entries\n"
         "templates" s.Shard.hits s.Shard.misses
         (100. *. Cache.hit_rate s)
         s.Shard.entries);
    (match stats.Cache.persist with
    | None -> ()
    | Some p ->
      let s = p.Cache.store in
      Buffer.add_string buffer
        (Printf.sprintf
           "  %-12s %6d hits (%d tpl, %d res) %6d misses  %s, %d entries, \
            %d KB\n"
           "store"
           (p.Cache.template_hits + p.Cache.result_hits)
           p.Cache.template_hits p.Cache.result_hits p.Cache.misses
           (match s.Tabseg_store.Store.role with
           | Tabseg_store.Store.Writer -> "writer"
           | Tabseg_store.Store.Reader -> "reader")
           s.Tabseg_store.Store.entries
           (s.Tabseg_store.Store.file_bytes / 1024)));
    Buffer.contents buffer

(* Run [f] with a batch segmenter over a service: in this process at
   --procs 1, through the gateway's forked workers above that. Returns
   [f]'s answer, the metrics dump (in process, with the cache's hit
   rates) and the metrics as JSON. *)
let with_segmenter (config : Tabseg_gateway.Gateway.config) f =
  let open Tabseg_serve in
  let open Tabseg_gateway in
  let requests batch =
    List.map (fun (url, input) -> { Service.id = url; site = url; input }) batch
  in
  let failure message = Error (Tabseg.Api.Pipeline_failure message) in
  let finish answer registry cache_dump =
    (answer, Metrics.report registry ^ cache_dump, Metrics.to_json registry)
  in
  if config.Gateway.procs > 1 then begin
    let gateway = Gateway.create ~config () in
    Gateway.install_sigterm gateway;
    Fun.protect ~finally:(fun () -> Gateway.shutdown gateway) @@ fun () ->
    let answer =
      f (fun batch ->
          List.map
            (fun response ->
              match Gateway.result response with
              | Ok result -> Ok result
              | Error (Gateway.Service_error (Service.Invalid_input error)) ->
                Error error
              | Error error -> failure (Gateway.error_message error))
            (Gateway.run_batch gateway (requests batch)))
    in
    finish answer (Gateway.metrics gateway) ""
  end
  else begin
    let service = Service.create ~config:config.Gateway.service () in
    Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
    let answer =
      f (fun batch ->
          List.map
            (fun (response : Service.response) ->
              match response.Service.outcome with
              | Ok result -> Ok result
              | Error (Service.Invalid_input error) -> Error error
              | Error error -> failure (Service.error_message error))
            (Service.run_batch service (requests batch)))
    in
    finish answer (Service.metrics service) (cache_stats_dump service)
  end

let auto_cmd =
  let site_arg =
    let doc = "Site to simulate and navigate (see $(b,tabseg sites))." in
    Arg.(required & opt (some string) None & info [ "s"; "site" ] ~doc)
  in
  let faults_arg =
    let doc =
      "Inject faults: each URL draws a fault plan (timeouts, 5xx, rate \
       limits, truncated or garbled bodies) with this probability. 0 \
       disables injection entirely."
    in
    Arg.(value & opt float 0. & info [ "faults" ] ~doc ~docv:"RATE")
  in
  let fault_seed_arg =
    let doc = "Seed for the fault plans; runs are reproducible per seed." in
    Arg.(value & opt int 0 & info [ "fault-seed" ] ~doc ~docv:"SEED")
  in
  let permanent_arg =
    let doc =
      "Fraction of faulty URLs whose fault is permanent rather than \
       transient."
    in
    Arg.(
      value
      & opt float Tabseg_navigator.Faults.default_config.permanent_rate
      & info [ "permanent" ] ~doc ~docv:"RATE")
  in
  let retries_arg =
    let doc = "Fetch attempts per URL (including the first)." in
    Arg.(
      value
      & opt int Tabseg_navigator.Crawler.default_retry_policy.max_attempts
      & info [ "retries" ] ~doc ~docv:"N")
  in
  let report_arg =
    let doc =
      "Print the structured crawl report (attempts, retries, give-ups \
       per error class, breaker trips, virtual time)."
    in
    Arg.(value & flag & info [ "report" ] ~doc)
  in
  let metrics_arg =
    let doc =
      "Print the metrics registry after the run: request counters, \
       cache hits, and per-stage latency histograms (crawl, tokenize, \
       template, extract, CSP/HMM)."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let metrics_json_arg =
    let doc =
      "Write the metrics registry as JSON to $(docv) ($(b,-) for \
       stdout): counters, gauges and every latency histogram — \
       including the per-stage $(b,stage.*) timings (tokenize, \
       template, extract, csp, hmm) the instrumentation bus collects."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~doc ~docv:"PATH")
  in
  let run site_name fault_rate fault_seed permanent retries show_report
      show_metrics metrics_json config =
    match Tabseg_sitegen.Sites.find site_name with
    | exception Not_found ->
      Printf.eprintf "unknown site %S; try `tabseg sites`\n" site_name;
      exit 1
    | site ->
      let generated = Tabseg_sitegen.Sites.generate site in
      let graph = Tabseg_navigator.Simulate.graph_of_site generated in
      let source =
        if fault_rate > 0. then
          Tabseg_navigator.Faults.wrap
            ~config:
              {
                Tabseg_navigator.Faults.default_config with
                Tabseg_navigator.Faults.seed = fault_seed;
                fault_rate;
                permanent_rate = permanent;
              }
            graph
        else Tabseg_navigator.Faults.pristine graph
      in
      let retry =
        {
          Tabseg_navigator.Crawler.default_retry_policy with
          Tabseg_navigator.Crawler.max_attempts = max 1 retries;
        }
      in
      let report, metrics_dump, json =
        with_segmenter config (fun segment_batch ->
            Tabseg_navigator.Auto.run_resilient ~retry ~segment_batch source)
      in
      Format.printf
        "crawled %d pages: %d list, %d detail, %d other@."
        report.Tabseg_navigator.Auto.pages_fetched
        report.Tabseg_navigator.Auto.lists_found
        report.Tabseg_navigator.Auto.details_found
        report.Tabseg_navigator.Auto.others_found;
      if
        report.Tabseg_navigator.Auto.details_missing > 0
        || report.Tabseg_navigator.Auto.details_corrupted > 0
      then
        Format.printf "degraded: %d detail page(s) missing, %d corrupted@."
          report.Tabseg_navigator.Auto.details_missing
          report.Tabseg_navigator.Auto.details_corrupted;
      List.iter
        (fun (url, error) ->
          Format.printf "skipped %s: %s@." url
            (Tabseg.Api.input_error_message error))
        report.Tabseg_navigator.Auto.skipped;
      List.iter
        (fun result ->
          Format.printf "@.%s:@.%a@."
            result.Tabseg_navigator.Auto.list_url
            Tabseg.Segmentation.pp
            result.Tabseg_navigator.Auto.segmentation)
        report.Tabseg_navigator.Auto.results;
      if show_report then
        Format.printf "@.crawl report:@.%a@."
          Tabseg_navigator.Crawler.pp_report
          report.Tabseg_navigator.Auto.crawl;
      if show_metrics then Format.printf "@.metrics:@.%s@?" metrics_dump;
      match metrics_json with
      | Some "-" -> print_endline json
      | Some path ->
        write_file path json;
        Printf.printf "wrote metrics to %s\n" path
      | None -> ()
  in
  Cmd.v
    (Cmd.info "auto"
       ~doc:"Navigate a simulated site from its entry page and segment \
             every list page found through the serving layer, optionally \
             through injected faults and in parallel")
    Term.(
      const run $ site_arg $ faults_arg $ fault_seed_arg $ permanent_arg
      $ retries_arg $ report_arg $ metrics_arg $ metrics_json_arg
      $ gateway_term ~procs:1)

(* ------------------------------- serve ----------------------------- *)

let address_conv =
  let parse s =
    match Tabseg_daemon.Protocol.address_of_string s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e)
  in
  let print ppf a =
    Format.pp_print_string ppf (Tabseg_daemon.Protocol.address_to_string a)
  in
  Arg.conv ~docv:"ADDR" (parse, print)

let serve_cmd =
  let open Tabseg_daemon in
  let listen_arg =
    let doc =
      "Listen address: $(b,unix:PATH) or $(b,tcp:HOST:PORT) (port 0 \
       binds a kernel-assigned port and prints the real one)."
    in
    Arg.(
      value
      & opt address_conv Daemon.default_config.Daemon.listen
      & info [ "listen" ] ~doc ~docv:"ADDR")
  in
  let auth_arg =
    let doc =
      "Shared secret: clients must present exactly this token in their \
       handshake or be rejected. Unset: no authentication, which only a \
       Unix socket or a loopback TCP address allows."
    in
    Arg.(
      value & opt (some string) None & info [ "auth-token" ] ~doc ~docv:"TOKEN")
  in
  let idle_arg =
    let doc =
      "Close a connection idle (no inbound bytes, nothing outstanding) \
       for this many seconds. Unset: keep idle connections forever."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ] ~doc ~docv:"SECONDS")
  in
  let inflight_arg =
    let doc =
      "Pipelining window: requests one connection may have outstanding \
       before the excess is refused in-order with a typed overload error."
    in
    Arg.(
      value
      & opt int Daemon.default_config.Daemon.max_conn_inflight
      & info [ "max-conn-inflight" ] ~doc ~docv:"N")
  in
  let max_conns_arg =
    let doc = "Accept cap; above it handshakes are rejected as full." in
    Arg.(
      value
      & opt int Daemon.default_config.Daemon.max_connections
      & info [ "max-connections" ] ~doc ~docv:"N")
  in
  let drain_grace_arg =
    let doc =
      "SIGTERM drain budget: seconds to let in-flight work finish \
       before shutting the gateway down anyway."
    in
    Arg.(
      value
      & opt float Daemon.default_config.Daemon.drain_grace_s
      & info [ "drain-grace" ] ~doc ~docv:"SECONDS")
  in
  let run listen auth_token idle_timeout max_conn_inflight max_connections
      drain_grace gateway =
    let config =
      {
        Daemon.listen;
        auth_token;
        idle_timeout_s = idle_timeout;
        max_conn_inflight;
        max_connections;
        drain_grace_s = drain_grace;
        gateway;
      }
    in
    match Daemon.create ~config () with
    | exception Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "tabseg serve: cannot bind %s: %s (%s %s)\n"
        (Tabseg_daemon.Protocol.address_to_string listen)
        (Unix.error_message err) fn arg;
      exit 1
    | exception Invalid_argument message ->
      Printf.eprintf "tabseg serve: %s\n" message;
      exit 1
    | t ->
      Printf.printf "tabseg daemon listening on %s (pid %d, %d proc(s))\n"
        (Tabseg_daemon.Protocol.address_to_string (Daemon.bound_address t))
        (Unix.getpid ()) gateway.Tabseg_gateway.Gateway.procs;
      (match config.Daemon.auth_token with
      | Some _ -> print_endline "authentication required"
      | None -> ());
      print_endline "SIGTERM drains gracefully";
      flush stdout;
      Daemon.serve t;
      print_endline "drained; bye"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the segmentation daemon: a TCP or Unix-domain-socket \
             front door over the multi-process gateway")
    Term.(
      const run $ listen_arg $ auth_arg $ idle_arg $ inflight_arg
      $ max_conns_arg $ drain_grace_arg $ gateway_term ~procs:2)

(* ------------------------------ corpus ------------------------------ *)

module Corpus_family = Tabseg_corpus.Family
module Corpus_harness = Tabseg_corpus.Harness

let corpus_sites_arg =
  let doc = "Number of sites to sample." in
  Arg.(value & opt int 100 & info [ "n"; "sites" ] ~doc ~docv:"N")

let corpus_seed_arg =
  let doc = "Corpus sampler seed (same seed, same corpus — always)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc ~docv:"SEED")

let corpus_max_page_arg =
  let doc = "Upper bound on records per list page." in
  Arg.(
    value
    & opt int Corpus_family.default_params.Corpus_family.max_rows_per_page
    & info [ "max-rows-per-page" ] ~doc ~docv:"N")

let corpus_params ~sites ~seed ~max_rows_per_page =
  { Corpus_family.default_params with sites; seed; max_rows_per_page }

let corpus_gen_cmd =
  let out_arg =
    let doc = "Output directory (created if missing)." in
    Arg.(value & opt string "corpus" & info [ "o"; "out" ] ~doc)
  in
  let max_pages_arg =
    let doc =
      "Materialize at most this many list pages per site (sites sampled \
       at 10^5 rows paginate into thousands; the written prefix is \
       byte-identical to the full site's first pages)."
    in
    Arg.(value & opt int 5 & info [ "max-pages" ] ~doc ~docv:"K")
  in
  let run sites seed max_rows_per_page out max_pages =
    let params = corpus_params ~sites ~seed ~max_rows_per_page in
    let specs = Corpus_family.sample params in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let manifest = Buffer.create 1024 in
    Buffer.add_string manifest
      "name\tfamily\tseed\trows\trows_per_page\tpages\tfields\n";
    List.iter
      (fun spec ->
        let open Corpus_family in
        Buffer.add_string manifest
          (Printf.sprintf "%s\t%s\t%d\t%d\t%d\t%d\t%s\n" spec.sp_name
             spec.sp_family spec.sp_seed spec.sp_rows spec.sp_rows_per_page
             (page_count spec)
             (String.concat ","
                (List.map (fun f -> f.fd_label) spec.sp_fields
                @
                match spec.sp_nested with
                | Some n -> [ n.ns_label ^ "*" ]
                | None -> [])));
        let dir = Filename.concat out spec.sp_name in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let generated = generate ~max_pages spec in
        List.iteri
          (fun p page ->
            write_file
              (Filename.concat dir (Printf.sprintf "list_%d.html" p))
              page.list_html;
            List.iteri
              (fun i detail ->
                write_file
                  (Filename.concat dir
                     (Printf.sprintf "detail_%d_%d.html" p i))
                  detail)
              page.detail_htmls;
            write_file
              (Filename.concat dir (Printf.sprintf "truth_%d.tsv" p))
              (String.concat "\n"
                 (List.map (String.concat "\t") page.truth)))
          generated.pages)
      specs;
    write_file (Filename.concat out "manifest.tsv") (Buffer.contents manifest);
    Printf.printf "wrote %d sites (and manifest.tsv) to %s\n"
      (List.length specs) out
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Sample a seeded corpus and write its pages and ground truth \
             to disk")
    Term.(
      const run $ corpus_sites_arg $ corpus_seed_arg $ corpus_max_page_arg
      $ out_arg $ max_pages_arg)

let corpus_eval_cmd =
  let siblings_arg =
    let doc = "Extra list pages given to template induction." in
    Arg.(
      value
      & opt int Corpus_harness.default_config.Corpus_harness.siblings
      & info [ "siblings" ] ~doc ~docv:"N")
  in
  let worst_arg =
    let doc = "How many worst sites to digest for triage." in
    Arg.(
      value
      & opt int Corpus_harness.default_config.Corpus_harness.worst_k
      & info [ "worst" ] ~doc ~docv:"K")
  in
  let json_arg =
    let doc = "Also write the full report as JSON to this path." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"PATH")
  in
  (* Defaults to prob, unlike the other verbs: strict CSP scores an
     unsatisfiable (contaminated) site all-wrong, which makes it the
     wrong default for a corpus whose sampler contaminates on purpose. *)
  let corpus_method_arg =
    let doc = "Segmentation method: $(b,csp) or $(b,prob)." in
    Arg.(
      value
      & opt method_conv Tabseg.Api.Probabilistic
      & info [ "m"; "method" ] ~doc)
  in
  let run sites seed max_rows_per_page method_ siblings worst json_path =
    let params = corpus_params ~sites ~seed ~max_rows_per_page in
    let specs = Corpus_family.sample params in
    let config =
      {
        Corpus_harness.default_config with
        Corpus_harness.method_;
        siblings;
        worst_k = worst;
      }
    in
    let report = Corpus_harness.evaluate ~config specs in
    print_string (Corpus_harness.render_report report);
    match json_path with
    | None -> ()
    | Some path ->
      write_file path (Corpus_harness.report_json ~params ~config report);
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Sample a seeded corpus, segment every site through the \
             service and report P/R/F distributions")
    Term.(
      const run $ corpus_sites_arg $ corpus_seed_arg $ corpus_max_page_arg
      $ corpus_method_arg $ siblings_arg $ worst_arg $ json_arg)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:"Seeded site-family corpora: generate to disk or evaluate at \
             scale")
    [ corpus_gen_cmd; corpus_eval_cmd ]

(* ------------------------------ loadgen ----------------------------- *)

let loadgen_cmd =
  let open Tabseg_daemon in
  let connect_arg =
    let doc = "Daemon address: $(b,unix:PATH) or $(b,tcp:HOST:PORT)." in
    Arg.(
      value
      & opt address_conv Daemon.default_config.Daemon.listen
      & info [ "connect" ] ~doc ~docv:"ADDR")
  in
  let conns_arg =
    let doc = "Concurrent connections." in
    Arg.(value & opt int 4 & info [ "c"; "conns" ] ~doc ~docv:"N")
  in
  let rate_arg =
    let doc =
      "Open-loop mode: schedule arrivals at this rate (requests/second \
       across all connections), regardless of completions. Latency is \
       measured from the scheduled arrival. Unset: closed loop."
    in
    Arg.(value & opt (some float) None & info [ "rate" ] ~doc ~docv:"RPS")
  in
  let pipeline_arg =
    let doc =
      "Closed-loop mode: keep this many requests outstanding per \
       connection (ignored with --rate)."
    in
    Arg.(value & opt int 1 & info [ "pipeline" ] ~doc ~docv:"N")
  in
  let duration_arg =
    let doc = "Arrival window in seconds (draining runs after)." in
    Arg.(value & opt float 5.0 & info [ "duration" ] ~doc ~docv:"SECONDS")
  in
  let sites_arg =
    let doc =
      "Restrict the site universe (repeatable; default: all twelve \
       synthetic sites)."
    in
    Arg.(value & opt_all string [] & info [ "s"; "site" ] ~doc ~docv:"SITE")
  in
  let zipf_arg =
    let doc =
      "Zipf exponent for site skew: 0 = uniform, 1 ≈ web-like traffic."
    in
    Arg.(value & opt float 0. & info [ "zipf" ] ~doc ~docv:"EXPONENT")
  in
  let seed_arg =
    let doc = "Site-skew RNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"SEED")
  in
  let auth_arg =
    let doc = "Token presented in every handshake." in
    Arg.(
      value & opt (some string) None & info [ "auth-token" ] ~doc ~docv:"TOKEN")
  in
  let retry_arg =
    let doc =
      "Honour the retry-after hint in quota rejections: re-submit after \
       the hinted delay, keeping the original arrival time for latency."
    in
    Arg.(value & flag & info [ "retry" ] ~doc)
  in
  let max_retries_arg =
    let doc = "Retry budget per request (with --retry)." in
    Arg.(value & opt int 3 & info [ "max-retries" ] ~doc ~docv:"N")
  in
  let verify_arg =
    let doc =
      "Render every Ok reply and compare it byte-for-byte against an \
       in-process segmentation of the same input (assumes the server \
       runs the same method); mismatches fail the run."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let corpus_arg =
    let doc =
      "Draw the site universe from this many sampled corpus sites (see \
       $(b,tabseg corpus)) instead of the twelve built-in sites — Zipf \
       skew then ranges over a realistic large universe."
    in
    Arg.(value & opt int 0 & info [ "corpus" ] ~doc ~docv:"N")
  in
  let corpus_seed_arg =
    let doc = "Corpus sampler seed (with --corpus)." in
    Arg.(value & opt int 1 & info [ "corpus-seed" ] ~doc ~docv:"SEED")
  in
  let run method_ address connections rate pipeline duration site_names zipf
      seed auth_token retry max_retries verify corpus corpus_seed =
    let sites =
      if corpus > 0 then begin
        if site_names <> [] then begin
          Printf.eprintf "--corpus and --site are mutually exclusive\n";
          exit 1
        end;
        (* the bounded bench profile: page size capped so per-request
           service time stays sane under load *)
        let params =
          corpus_params ~sites:corpus ~seed:corpus_seed ~max_rows_per_page:12
        in
        Corpus_harness.site_inputs (Corpus_family.sample params)
        |> List.map (fun (name, input, _truth) -> (name, input))
        |> Array.of_list
      end
      else begin
        let chosen =
          match site_names with
          | [] -> Sites.all
          | names ->
            List.map
              (fun name ->
                match Sites.find name with
                | site -> site
                | exception Not_found ->
                  Printf.eprintf "unknown site %S; try `tabseg sites`\n" name;
                  exit 1)
              names
        in
        Array.of_list
          (List.map
             (fun site ->
               let generated = Sites.generate site in
               let list_pages, detail_pages =
                 Sites.segmentation_input generated ~page_index:0
               in
               ( site.Sites.name,
                 { Tabseg.Pipeline.list_pages; detail_pages } ))
             chosen)
      end
    in
    let expected =
      if not verify then []
      else
        Array.to_list
          (Array.map
             (fun (name, input) ->
               let result = Tabseg.Api.segment ~method_ input in
               ( name,
                 Format.asprintf "%a" Tabseg.Segmentation.pp
                   result.Tabseg.Api.segmentation ))
             sites)
    in
    let config =
      {
        Loadgen.default_config with
        Loadgen.address;
        connections;
        mode =
          (match rate with
          | Some rate -> Loadgen.Open_loop { rate }
          | None -> Loadgen.Closed_loop { pipeline = max 1 pipeline });
        duration_s = duration;
        seed;
        auth_token;
        sites;
        zipf_exponent = zipf;
        retry_quota = retry;
        max_retries;
        expected;
      }
    in
    match Loadgen.run config with
    | Error why ->
      Printf.eprintf "loadgen: %s\n" why;
      exit 1
    | Ok stats ->
      Printf.printf "offered %d  completed %d  ok %d  failed %d\n"
        stats.Loadgen.offered stats.Loadgen.completed stats.Loadgen.ok
        stats.Loadgen.failed;
      if stats.Loadgen.errors <> [] then
        Printf.printf "errors: %s\n"
          (String.concat "  "
             (List.map
                (fun (label, n) -> Printf.sprintf "%s=%d" label n)
                stats.Loadgen.errors));
      if retry || stats.Loadgen.retried > 0 then
        Printf.printf "retried %d  recovered %d  abandoned %d\n"
          stats.Loadgen.retried stats.Loadgen.recovered
          stats.Loadgen.abandoned;
      if verify then Printf.printf "mismatches %d\n" stats.Loadgen.mismatches;
      Printf.printf "wall %.2f s  rps %.1f  goodput %.1f\n"
        stats.Loadgen.wall_s stats.Loadgen.rps stats.Loadgen.goodput_rps;
      Printf.printf
        "latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n"
        stats.Loadgen.mean_ms stats.Loadgen.p50_ms stats.Loadgen.p95_ms
        stats.Loadgen.p99_ms stats.Loadgen.max_ms;
      if stats.Loadgen.mismatches > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running daemon with sustained concurrent load \
             (open- or closed-loop, Zipf site skew, optional \
             quota-retry and byte-identity verification)")
    Term.(
      const run $ method_arg $ connect_arg $ conns_arg $ rate_arg
      $ pipeline_arg $ duration_arg $ sites_arg $ zipf_arg $ seed_arg
      $ auth_arg $ retry_arg $ max_retries_arg $ verify_arg
      $ corpus_arg $ corpus_seed_arg)

let () =
  let doc = "automatic segmentation of records in Web tables" in
  let info = Cmd.info "tabseg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ sites_cmd; generate_cmd; segment_cmd; eval_cmd; auto_cmd;
            reconstruct_cmd; serve_cmd; loadgen_cmd; corpus_cmd ]))
