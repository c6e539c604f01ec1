(* The serving layer: batch-vs-sequential determinism, cache
   correctness (a hit returns exactly what the cold miss computed, the
   request key's values pinned), LRU eviction under a tiny budget,
   monotone metrics, and a raising request failing alone. *)

open Tabseg_serve
open Tabseg_sitegen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let render segmentation =
  Format.asprintf "%a" Tabseg.Segmentation.pp segmentation

let render_response (response : Service.response) =
  match response.Service.outcome with
  | Ok result -> render result.Tabseg.Api.segmentation
  | Error error -> "ERROR: " ^ Service.error_message error

(* Every page of [sites] as one service request; [reseed] shifts each
   site's generator seed so "across seeds" means genuinely different
   page content. *)
let requests_of ?(reseed = 0) site_names =
  List.concat_map
    (fun name ->
      let site = Sites.find name in
      let site = { site with Sites.seed = site.Sites.seed + reseed } in
      let generated = Sites.generate site in
      List.mapi
        (fun page_index _ ->
          let list_pages, detail_pages =
            Sites.segmentation_input generated ~page_index
          in
          {
            Service.id = Printf.sprintf "%s#%d" name page_index;
            site = name;
            input = { Tabseg.Pipeline.list_pages; detail_pages };
          })
        generated.Sites.pages)
    site_names

let sequential_reference ~method_ requests =
  List.map
    (fun (request : Service.request) ->
      match
        Tabseg.Api.segment_result ~method_ request.Service.input
      with
      | Ok result -> render result.Tabseg.Api.segmentation
      | Error error -> "ERROR: " ^ Tabseg.Api.input_error_message error)
    requests

(* --------------------------- determinism ---------------------------- *)

(* Two rounds of [requests] through one service, a cold one and a warm
   one: each must render as [expected], in request order. *)
let check_rounds ~label ~config ~expected requests =
  let service = Service.create ~config () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  List.iter
    (fun round ->
      let responses = Service.run_batch service requests in
      check_int
        (Printf.sprintf "%s round %d: response count" label round)
        (List.length requests) (List.length responses);
      List.iteri
        (fun i (response : Service.response) ->
          check_string
            (Printf.sprintf "%s round %d request %d" label round i)
            (List.nth expected i)
            (render_response response);
          check_string "response order preserved"
            (List.nth requests i).Service.id response.Service.id)
        responses)
    [ 1; 2 ]

let test_batch_matches_sequential () =
  List.iter
    (fun reseed ->
      let requests =
        requests_of ~reseed [ "ButlerCounty"; "AlleghenyCounty"; "Canada411" ]
      in
      check_rounds
        ~label:(Printf.sprintf "reseed %d" reseed)
        ~config:Service.default_config
        ~expected:
          (sequential_reference ~method_:Tabseg.Api.Probabilistic requests)
        requests)
    [ 0; 17 ]

let test_batch_matches_sequential_csp () =
  let requests = requests_of [ "ButlerCounty"; "OhioCorrections" ] in
  check_rounds ~label:"csp"
    ~config:{ Service.default_config with Service.method_ = Tabseg.Api.Csp }
    ~expected:(sequential_reference ~method_:Tabseg.Api.Csp requests)
    requests

(* --------------------------- cache behavior ------------------------- *)

(* The request key is the content address persisted stores and peers
   on older builds share, so its values are pinned. *)
let test_request_key_pinned () =
  let input =
    {
      Tabseg.Pipeline.list_pages = [ "<p>a</p>"; "<p>b</p>" ];
      detail_pages = [ "<p>c</p>" ];
    }
  in
  check_string "csp" "16e3c04ca9af34b408f24f29e7618da6"
    (Cache.request_key ~method_:Tabseg.Api.Csp input);
  check_string "tagged, probabilistic" "327e20f54020de3201ea740da742418e"
    (Cache.request_key ~tag:"t" ~method_:Tabseg.Api.Probabilistic input)

let test_cache_hit_identical () =
  let requests = requests_of [ "ButlerCounty" ] in
  let service = Service.create () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let cold = Service.run_batch service requests in
  let after_cold =
    match Service.cache_stats service with
    | None -> Alcotest.fail "cache should be enabled by default"
    | Some stats -> stats
  in
  let warm = Service.run_batch service requests in
  List.iter
    (fun (response : Service.response) ->
      check_bool "cold round misses" false response.Service.cache_hit)
    cold;
  List.iter2
    (fun (c : Service.response) (w : Service.response) ->
      check_bool "warm round hits" true w.Service.cache_hit;
      check_string "hit equals cold miss" (render_response c)
        (render_response w))
    cold warm;
  match Service.cache_stats service with
  | None -> Alcotest.fail "cache should be enabled by default"
  | Some stats ->
    check_bool "result memo hits recorded" true
      (stats.Cache.results.Shard.hits >= List.length requests);
    (* The acceptance bar is about the warm round alone: compare against
       the snapshot taken after the cold round. *)
    let warm_hits =
      stats.Cache.results.Shard.hits - after_cold.Cache.results.Shard.hits
    and warm_misses =
      stats.Cache.results.Shard.misses
      - after_cold.Cache.results.Shard.misses
    in
    check_bool "warm hit rate above 80%" true
      (float_of_int warm_hits
       /. float_of_int (max 1 (warm_hits + warm_misses))
      > 0.8)

let test_template_cache_shared () =
  (* Same-site requests repeated: after the first, template induction
     must be served from the template cache. *)
  let requests = requests_of [ "AlleghenyCounty" ] in
  let service = Service.create () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  ignore (Service.run_batch service requests);
  ignore (Service.run_batch service requests);
  match Service.cache_stats service with
  | None -> Alcotest.fail "cache should be enabled by default"
  | Some stats ->
    check_bool "templates were cached" true
      (stats.Cache.templates.Shard.entries > 0);
    check_int "no template eviction in a 64MB budget" 0
      stats.Cache.templates.Shard.evictions

let test_lru_eviction () =
  let shard = Shard.create ~shards:1 ~capacity:3 ~cost:(fun _ -> 1) () in
  Shard.store shard "a" "A";
  Shard.store shard "b" "B";
  Shard.store shard "c" "C";
  (* Refresh "a" so "b" is the least recently used. *)
  check_bool "a present" true (Shard.find shard "a" = Some "A");
  Shard.store shard "d" "D";
  let stats = Shard.stats shard in
  check_int "one eviction" 1 stats.Shard.evictions;
  check_int "three live entries" 3 stats.Shard.entries;
  check_bool "b evicted" true (Shard.find shard "b" = None);
  check_bool "a survived" true (Shard.find shard "a" = Some "A");
  check_bool "c survived" true (Shard.find shard "c" = Some "C");
  check_bool "d stored" true (Shard.find shard "d" = Some "D")

let test_oversize_value_not_cached () =
  let shard = Shard.create ~shards:1 ~capacity:4 ~cost:String.length () in
  Shard.store shard "big" "xxxxxxxxxx";
  check_bool "oversize value skipped" true (Shard.find shard "big" = None);
  check_int "nothing evicted for it" 0 (Shard.stats shard).Shard.evictions

(* An entry's body: nothing is encoded when a result is stored without
   a store; the first ask encodes it once, every later ask returns that
   same string, and its bytes count against the budget. *)
let test_entry_body_counted_and_kept () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  let input = request.Service.input in
  let result =
    match Tabseg.Api.segment_result ~method_:Tabseg.Api.Csp input with
    | Ok result -> result
    | Error error -> Alcotest.fail (Tabseg.Api.input_error_message error)
  in
  let cache = Cache.create () in
  let key = Cache.request_key ~method_:Tabseg.Api.Csp input in
  let entry = Cache.store_result cache ~key result in
  check_bool "no store: nothing encoded when stored" true
    (entry.Cache.body = None);
  let cost () = (Cache.stats cache).Cache.results.Shard.cost in
  let before = cost () in
  let body = Cache.body cache ~key entry in
  check_int "the body's bytes count against the budget"
    (before + String.length (body :> string))
    (cost ());
  (match Cache.find_result cache ~key with
  | Some entry ->
    check_bool "the entry keeps the body" true
      (match entry.Cache.body with Some kept -> kept == body | None -> false);
    check_bool "a later ask returns the same body" true
      (Cache.body cache ~key entry == body)
  | None -> Alcotest.fail "the entry was dropped");
  check_bool "the body decodes to the result" true
    (Tabseg_store.Codec.decode_body body = result)

(* [reply_one] answers with the memo entry's body: a miss encodes it
   once, and every hit on the entry returns that same string, equal to
   what [segment_one] answers decoded. [segment_one] encodes nothing. *)
let test_reply_one_reuses_body () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  let service = Service.create () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let cost () =
    match Service.cache_stats service with
    | Some stats -> stats.Cache.results.Shard.cost
    | None -> Alcotest.fail "cache should be enabled by default"
  in
  let decoded = Service.segment_one service request in
  let before = cost () in
  let replies = List.init 3 (fun _ -> Service.reply_one service request) in
  let bodies =
    List.map
      (fun (reply : Service.reply) ->
        check_bool "every reply is a memo hit" true reply.Service.cache_hit;
        match reply.Service.outcome with
        | Ok body -> body
        | Error error -> Alcotest.fail (Service.error_message error))
      replies
  in
  check_int "segment_one stored no body; the first reply stored one"
    (before + String.length (List.hd bodies :> string))
    (cost ());
  List.iter
    (fun body ->
      check_bool "hits on one entry return physically the same body" true
        (body == List.hd bodies))
    bodies;
  match decoded.Service.outcome with
  | Ok result ->
    check_bool "the body decodes to segment_one's result" true
      (Tabseg_store.Codec.decode_body (List.hd bodies) = result)
  | Error error -> Alcotest.fail (Service.error_message error)

(* ----------------------------- metrics ------------------------------ *)

let test_metrics_counters_monotone () =
  let registry = Metrics.create () in
  let c = Metrics.counter registry "events" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  check_bool "negative increments rejected" true
    (match Metrics.incr ~by:(-1) c with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_int "value unchanged after rejected incr" 5 (Metrics.counter_value c);
  (* Same name => same metric. *)
  Metrics.incr (Metrics.counter registry "events");
  check_int "interned by name" 6 (Metrics.counter_value c)

let test_metrics_histogram_percentiles () =
  let registry = Metrics.create () in
  let h = Metrics.histogram registry "latency" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.008; 0.1 ];
  let s = Metrics.summary h in
  check_int "count" 5 s.Metrics.count;
  check_bool "min <= p50 <= p95 <= p99 <= max" true
    (s.Metrics.min <= s.Metrics.p50
    && s.Metrics.p50 <= s.Metrics.p95
    && s.Metrics.p95 <= s.Metrics.p99
    && s.Metrics.p99 <= s.Metrics.max);
  check_bool "p50 in the right decade" true
    (s.Metrics.p50 >= 0.001 && s.Metrics.p50 <= 0.01)

let test_service_metrics_flow () =
  let requests = requests_of [ "ButlerCounty" ] in
  let service = Service.create () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let registry = Service.metrics service in
  let total = Metrics.counter registry "requests.total" in
  ignore (Service.run_batch service requests);
  let after_one = Metrics.counter_value total in
  check_bool "requests counted" true (after_one >= List.length requests);
  ignore (Service.run_batch service requests);
  check_bool "counter is monotone across batches" true
    (Metrics.counter_value total >= after_one + List.length requests);
  let latency = Metrics.summary (Metrics.histogram registry "request.seconds") in
  check_bool "latencies observed" true
    (latency.Metrics.count >= 2 * List.length requests);
  (* Stage events crossed the instrumentation bridge. *)
  let stage =
    Metrics.summary (Metrics.histogram registry "stage.pipeline.template")
  in
  check_bool "template stage timed" true (stage.Metrics.count > 0);
  let json = Metrics.to_json registry in
  let contains haystack needle =
    let h = String.length haystack and n = String.length needle in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    at 0
  in
  check_bool "json dump mentions the counters" true
    (contains json {|"requests.total"|})

(* A request that raises answers alone: here a stage subscriber, armed
   once the first request has been segmented, raises from the second
   request on. The first keeps its answer, the second and a later
   [reply_one] resolve as [Worker_crashed], and each request counts once
   in [requests.total] and once in [requests.ok] or [requests.failed]. *)
let test_crash_fails_alone () =
  let first, second =
    match requests_of [ "AmazonBooks" ] with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "AmazonBooks has fewer than two pages"
  in
  let third = List.hd (requests_of [ "ButlerCounty" ]) in
  let expected =
    List.hd (sequential_reference ~method_:Tabseg.Api.Probabilistic [ first ])
  in
  let service = Service.create () in
  let armed = ref false in
  let raising =
    Tabseg.Instrument.subscribe (fun event ->
        if !armed then failwith "stage subscriber";
        if String.starts_with ~prefix:"segment." event.Tabseg.Instrument.stage
        then armed := true)
  in
  Fun.protect
    ~finally:(fun () ->
      Tabseg.Instrument.unsubscribe raising;
      Service.shutdown service)
  @@ fun () ->
  let crashed label = function
    | Error (Service.Worker_crashed _) -> ()
    | Ok _ | Error _ -> Alcotest.fail (label ^ ": expected Worker_crashed")
  in
  (match Service.run_batch service [ first; second ] with
  | [ a; b ] ->
    check_string "the first request keeps its answer" expected
      (render_response a);
    crashed "the second request" b.Service.outcome
  | _ -> Alcotest.fail "expected two responses");
  crashed "reply_one" (Service.reply_one service third).Service.outcome;
  let registry = Service.metrics service in
  let count name = Metrics.counter_value (Metrics.counter registry name) in
  check_int "requests.total" 3 (count "requests.total");
  check_int "requests.ok" 1 (count "requests.ok");
  check_int "requests.failed" 2 (count "requests.failed")

(* A minimal RFC 8259 string-literal parser: enough to prove that what
   [Metrics.json_string] emits decodes back to the original bytes. *)
let json_unescape literal =
  let n = String.length literal in
  if n < 2 || literal.[0] <> '"' || literal.[n - 1] <> '"' then
    Alcotest.failf "not a JSON string literal: %s" literal;
  let buf = Buffer.create n in
  let rec go i =
    if i < n - 1 then
      match literal.[i] with
      | '\\' -> (
        match literal.[i + 1] with
        | '"' -> Buffer.add_char buf '"'; go (i + 2)
        | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
        | '/' -> Buffer.add_char buf '/'; go (i + 2)
        | 'b' -> Buffer.add_char buf '\b'; go (i + 2)
        | 't' -> Buffer.add_char buf '\t'; go (i + 2)
        | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
        | 'f' -> Buffer.add_char buf '\012'; go (i + 2)
        | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
        | 'u' ->
          let code = int_of_string ("0x" ^ String.sub literal (i + 2) 4) in
          if code > 0xff then Alcotest.fail "non-latin escape unexpected here";
          Buffer.add_char buf (Char.chr code);
          go (i + 6)
        | c -> Alcotest.failf "bad escape \\%c" c)
      | c -> Buffer.add_char buf c; go (i + 1)
  in
  go 1;
  Buffer.contents buf

let test_json_string_hostile_label () =
  (* Every byte class the encoder must defuse: the quote, the
     backslash, named control escapes, arbitrary control bytes
     (including NUL and 0x1f at the boundary), DEL, and multi-byte
     UTF-8 (which must pass through untouched). *)
  let hostile =
    "ev\"il\\label\nwith\tctrl\x00\x01\x1f\x7f\band\r\012caf\xc3\xa9"
  in
  let literal = Metrics.json_string hostile in
  check_string "escaping round-trips" hostile (json_unescape literal);
  (* No raw control bytes and no unescaped quotes may survive inside
     the literal — that is what breaks JSON consumers. *)
  String.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "byte %d is JSON-clean" i)
        false
        (Char.code c < 0x20
        || (c = '"' && i > 0 && i < String.length literal - 1
            && literal.[i - 1] <> '\\')))
    literal;
  (* And the whole registry dump stays parseable-shaped with such a
     label embedded: the hostile name appears exactly in its escaped
     form. *)
  let registry = Metrics.create () in
  Metrics.incr (Metrics.counter registry hostile);
  let json = Metrics.to_json registry in
  let contains haystack needle =
    let h = String.length haystack and n = String.length needle in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    at 0
  in
  check_bool "to_json embeds the escaped label" true (contains json literal);
  check_bool "to_json has no raw newline from the label" true
    (not (contains json "il\\label\n"))

let () =
  Alcotest.run "serve"
    [
      ( "determinism",
        [
          Alcotest.test_case "batch = sequential (prob, 2 seeds)" `Slow
            test_batch_matches_sequential;
          Alcotest.test_case "batch = sequential (csp)" `Slow
            test_batch_matches_sequential_csp;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit identical to cold miss" `Quick
            test_cache_hit_identical;
          Alcotest.test_case "templates shared across requests" `Quick
            test_template_cache_shared;
          Alcotest.test_case "LRU eviction under tiny budget" `Quick
            test_lru_eviction;
          Alcotest.test_case "oversize values skipped" `Quick
            test_oversize_value_not_cached;
          Alcotest.test_case "request key pinned" `Quick
            test_request_key_pinned;
          Alcotest.test_case "entry body counted and kept" `Quick
            test_entry_body_counted_and_kept;
          Alcotest.test_case "reply_one reuses the entry's body" `Quick
            test_reply_one_reuses_body;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters monotone" `Quick
            test_metrics_counters_monotone;
          Alcotest.test_case "histogram percentiles ordered" `Quick
            test_metrics_histogram_percentiles;
          Alcotest.test_case "service threads metrics" `Quick
            test_service_metrics_flow;
          Alcotest.test_case "hostile label survives json escaping" `Quick
            test_json_string_hostile_label;
        ] );
      ( "failure",
        [
          Alcotest.test_case "a crashing request fails alone, counted once"
            `Quick test_crash_fails_alone;
        ] );
    ]
