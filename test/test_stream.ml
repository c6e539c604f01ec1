(* tabseg.stream: the streaming engine's contract. Byte-identity — the
   stream is a different *schedule* for the same computation, so folding
   the event stream must reproduce Api.segment_result exactly, on the
   twelve built-in sites and on corpus sites, for both methods.
   Incrementality — records of early units are emitted before later pages
   are even pulled from the source. Bounded memory — a 10^5-row corpus
   site streams under a fixed live-token and live-word budget. *)

open Tabseg_stream
module Api = Tabseg.Api
module Pipeline = Tabseg.Pipeline
module Sites = Tabseg_sitegen.Sites
module Family = Tabseg_corpus.Family

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let batch_digest ~method_ input =
  Runner.outcome_digest (Api.segment_result ~method_ input)

let stream_config ~method_ =
  { Engine.default_config with Engine.method_ }

(* ------------------------- built-in sites ---------------------------- *)

(* Every page of every built-in site, both methods: the single-unit stream
   (Service's seam) ends with the batch outcome, byte for byte, and the
   records it emitted along the way are the outcome's records. *)
let test_builtin_sites_identical () =
  List.iter
    (fun site ->
      let generated = Sites.generate site in
      List.iteri
        (fun page_index _ ->
          let list_pages, detail_pages =
            Sites.segmentation_input generated ~page_index
          in
          let input = { Pipeline.list_pages; detail_pages } in
          List.iter
            (fun method_ ->
              let streamed = ref [] in
              let outcome, _summary =
                Runner.stream_input
                  ~config:(stream_config ~method_)
                  ~on_record:(fun record -> streamed := record :: !streamed)
                  input
              in
              let label =
                Printf.sprintf "%s p%d (%s)" site.Sites.name page_index
                  (Api.method_name method_)
              in
              check_string label
                (batch_digest ~method_ input)
                (Runner.outcome_digest outcome);
              match outcome with
              | Ok result ->
                check_bool (label ^ ": streamed records = result records")
                  true
                  (List.rev !streamed
                  = result.Api.segmentation.Tabseg.Segmentation.records)
              | Error _ -> check_int (label ^ ": no records") 0
                             (List.length !streamed))
            [ Api.Csp; Api.Probabilistic ])
        generated.Sites.pages)
    Sites.all

(* --------------------------- corpus sites ---------------------------- *)

let corpus_specs ~sites ~seed ~max_rows =
  Family.sample
    {
      Family.default_params with
      Family.sites;
      seed;
      max_rows;
      max_rows_per_page = 10;
    }

(* Single-unit streams over a corpus sample, both methods. *)
let test_corpus_sample_identical () =
  let specs = corpus_specs ~sites:24 ~seed:91 ~max_rows:600 in
  List.iter
    (fun spec ->
      let generated = Family.generate ~max_pages:3 spec in
      let list_pages, detail_pages =
        Family.segmentation_input generated ~page_index:0 ~max_siblings:2
      in
      let input = { Pipeline.list_pages; detail_pages } in
      List.iter
        (fun method_ ->
          let outcome, _ =
            Runner.stream_input
              ~config:(stream_config ~method_)
              ~on_record:(fun _ -> ())
              input
          in
          check_string
            (Printf.sprintf "%s (%s)" spec.Family.sp_name
               (Api.method_name method_))
            (batch_digest ~method_ input)
            (Runner.outcome_digest outcome))
        [ Api.Csp; Api.Probabilistic ])
    specs

(* Multi-unit site streams: every list page is a unit; the engine's folded
   outcomes equal the batch reference over each unit's derived input, and
   events respect stream order. *)
let site_pages spec ~units =
  let generated = Family.generate ~max_pages:units spec in
  List.concat_map
    (fun (page : Family.page) ->
      Source.List_page { html = page.Family.list_html; segment = true }
      :: List.map
           (fun html -> Source.Detail_page html)
           page.Family.detail_htmls)
    generated.Family.pages

let test_multi_unit_identical () =
  let specs = corpus_specs ~sites:6 ~seed:17 ~max_rows:900 in
  List.iter
    (fun spec ->
      let pages = site_pages spec ~units:5 in
      List.iter
        (fun method_ ->
          let config =
            { (stream_config ~method_) with Engine.head_window = 3 }
          in
          let unit_done = ref [] in
          let records_of = Hashtbl.create 8 in
          let on_event = function
            | Frame.Unit_done { unit_index; _ } ->
              unit_done := unit_index :: !unit_done
            | Frame.Record { unit_index; record } ->
              check_bool "records precede their unit's Unit_done" false
                (List.mem unit_index !unit_done);
              Hashtbl.replace records_of unit_index
                (record
                :: Option.value ~default:[]
                     (Hashtbl.find_opt records_of unit_index))
            | Frame.Template_refined _ -> ()
          in
          let folded = Runner.fold ~config ~on_event (Source.of_pages pages) in
          let reference = Runner.batch_reference ~config pages in
          let label =
            Printf.sprintf "%s (%s)" spec.Family.sp_name
              (Api.method_name method_)
          in
          check_int (label ^ ": unit count") (List.length reference)
            (List.length folded.Runner.outcomes);
          List.iteri
            (fun i (streamed, batch) ->
              check_string
                (Printf.sprintf "%s: unit %d" label i)
                (Runner.outcome_digest batch)
                (Runner.outcome_digest streamed))
            (List.combine folded.Runner.outcomes reference);
          check_bool (label ^ ": units close in stream order") true
            (List.rev !unit_done
            = List.init (List.length !unit_done) Fun.id);
          List.iteri
            (fun i outcome ->
              match outcome with
              | Ok result ->
                let streamed =
                  List.rev
                    (Option.value ~default:[]
                       (Hashtbl.find_opt records_of i))
                in
                check_bool
                  (Printf.sprintf "%s: unit %d records" label i)
                  true
                  (streamed
                  = result.Api.segmentation.Tabseg.Segmentation.records)
              | Error _ -> ())
            folded.Runner.outcomes)
        [ Api.Csp; Api.Probabilistic ])
    specs

(* ------------------------- incrementality ---------------------------- *)

(* The first record must be emitted before the source is exhausted: the
   engine closes unit 0 as soon as the head seals and its details end,
   while later units' pages are still unpulled. *)
let test_first_record_before_source_exhausted () =
  let spec =
    {
      (List.hd (corpus_specs ~sites:1 ~seed:23 ~max_rows:2_000)) with
      Family.sp_rows = 200;
      sp_rows_per_page = 10;
    }
  in
  let pages = site_pages spec ~units:8 in
  let total = List.length pages in
  let pulled = ref 0 in
  let base = Source.of_pages pages in
  let source () =
    incr pulled;
    base ()
  in
  let pulled_at_first = ref None in
  let config =
    { Engine.default_config with Engine.head_window = 3 }
  in
  let on_event = function
    | Frame.Record _ when !pulled_at_first = None ->
      pulled_at_first := Some !pulled
    | _ -> ()
  in
  let summary = Runner.run ~config ~on_event source in
  check_bool "stream produced records" true (summary.Frame.records > 0);
  match !pulled_at_first with
  | None -> Alcotest.fail "no record event"
  | Some pulled ->
    check_bool
      (Printf.sprintf "first record after %d of %d pages" pulled total)
      true
      (pulled < total / 2)

(* Template refinement narrows monotonically as head pages arrive. *)
let test_refine_monotone () =
  let spec = List.hd (corpus_specs ~sites:1 ~seed:31 ~max_rows:2_000) in
  let pages = site_pages spec ~units:6 in
  let sizes = ref [] in
  let config = { Engine.default_config with Engine.head_window = 6 } in
  let on_event = function
    | Frame.Template_refined progress ->
      sizes := progress.Frame.template_size :: !sizes
    | _ -> ()
  in
  let _ = Runner.run ~config ~on_event (Source.of_pages pages) in
  let sizes = List.rev !sizes in
  check_bool "refinement events seen" true (List.length sizes >= 2);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | [ _ ] | [] -> true
  in
  check_bool "estimate narrows monotonically" true (monotone sizes)

(* The estimate's progress events on eight corpus sites, pinned as
   "pages seen:template size:slot count:boundaries changed", one string
   per site. They were produced by the engine's former estimator, which
   kept its own key-position tables and ran its own erosion; the estimate
   read from the head pages' template indexes must reproduce them. *)
let expected_progress =
  [
    "2:30:21:true 3:28:20:true 4:28:20:false 5:28:20:false 6:28:20:false";
    "2:11:3:true 3:11:3:false 4:11:3:false 5:11:3:false";
    "2:31:20:true 3:30:19:true 4:30:19:false 5:30:19:false 6:30:19:false";
    "2:11:3:true 3:11:3:false 4:11:3:false 5:11:3:false 6:11:3:false";
    "2:21:13:true 3:21:13:false 4:21:13:false 5:18:10:true";
    "2:14:6:true 3:11:3:true 4:11:3:false 5:11:3:false 6:11:3:false";
    "2:18:10:true 3:18:10:false 4:18:10:false 5:18:10:false 6:18:10:false";
    "2:25:17:true 3:25:17:false 4:25:17:false 5:25:17:false 6:25:17:false";
  ]

let test_refine_progress_pinned () =
  let config =
    { Engine.default_config with Engine.head_window = 6; method_ = Api.Csp }
  in
  let progress spec =
    let seen = ref [] in
    let on_event = function
      | Frame.Template_refined p ->
        seen :=
          Printf.sprintf "%d:%d:%d:%b" p.Frame.pages_seen p.Frame.template_size
            p.Frame.slot_count p.Frame.boundaries_changed
          :: !seen
      | _ -> ()
    in
    let _ =
      Runner.run ~config ~on_event (Source.of_pages (site_pages spec ~units:6))
    in
    String.concat " " (List.rev !seen)
  in
  Alcotest.(check (list string))
    "progress events" expected_progress
    (List.map progress (corpus_specs ~sites:8 ~seed:41 ~max_rows:2_000))

(* ------------------------- bounded memory ---------------------------- *)

(* Stream a 10^5-row site's units from a lazy source: the engine's live
   tokens and the process's live words stay bounded, and the streamed
   outcomes still match the batch reference. *)
let test_bounded_memory_huge_site () =
  let spec =
    {
      (List.hd (corpus_specs ~sites:1 ~seed:47 ~max_rows:4_000)) with
      Family.sp_name = "huge";
      sp_rows = 100_000;
      sp_rows_per_page = 25;
    }
  in
  let units = 10 in
  let lazy_source ~on_page =
    let next = Family.page_source ~max_pages:units spec in
    let queue = Queue.create () in
    fun () ->
      if not (Queue.is_empty queue) then Some (Queue.pop queue)
      else begin
        match next () with
        | None -> None
        | Some page ->
          on_page ();
          Queue.add
            (Source.List_page
               { html = page.Family.list_html; segment = true })
            queue;
          List.iter
            (fun html -> Queue.add (Source.Detail_page html) queue)
            page.Family.detail_htmls;
          Some (Queue.pop queue)
      end
  in
  let config = { Engine.default_config with Engine.head_window = 3 } in
  Gc.compact ();
  let baseline = (Gc.stat ()).Gc.live_words in
  let live_hwm = ref 0 in
  let sample () =
    live_hwm := max !live_hwm ((Gc.stat ()).Gc.live_words - baseline)
  in
  let folded =
    Runner.fold ~config
      ~on_event:(function Frame.Unit_done _ -> sample () | _ -> ())
      (lazy_source ~on_page:ignore)
  in
  check_int "all units closed" units (List.length folded.Runner.outcomes);
  (* Fixed budgets: the whole site is ~4000 pages; holding ~5 pages of
     tokens must stay orders of magnitude below materializing it. *)
  let token_hwm = folded.Runner.summary.Frame.live_tokens_hwm in
  check_bool
    (Printf.sprintf "live tokens bounded (hwm %d)" token_hwm)
    true (token_hwm < 200_000);
  check_bool
    (Printf.sprintf "live words bounded (hwm %d over baseline)" !live_hwm)
    true
    (!live_hwm < 16_000_000);
  (* Identity against the batch reference over the same derived inputs. *)
  let pages =
    let collected = ref [] in
    let source = lazy_source ~on_page:ignore in
    let rec drain () =
      match source () with
      | None -> List.rev !collected
      | Some page ->
        collected := page :: !collected;
        drain ()
    in
    drain ()
  in
  let reference = Runner.batch_reference ~config pages in
  List.iteri
    (fun i (streamed, batch) ->
      check_string
        (Printf.sprintf "unit %d identical" i)
        (Runner.outcome_digest batch)
        (Runner.outcome_digest streamed))
    (List.combine folded.Runner.outcomes reference)

(* The hard cap is really hard. *)
let test_budget_cap_enforced () =
  let spec = List.hd (corpus_specs ~sites:1 ~seed:59 ~max_rows:2_000) in
  let pages = site_pages spec ~units:4 in
  let config =
    {
      Engine.default_config with
      Engine.head_window = 3;
      max_live_tokens = Some 50;
    }
  in
  match Runner.run ~config ~on_event:ignore (Source.of_pages pages) with
  | _ -> Alcotest.fail "expected Budget.Exceeded"
  | exception Budget.Exceeded _ -> ()

(* --------------------------- validation ------------------------------ *)

(* The stream path refuses bad input with exactly the batch errors. *)
let test_validation_parity () =
  let stream input =
    fst
      (Runner.stream_input ~config:Engine.default_config
         ~on_record:(fun _ -> ())
         input)
  in
  let same label input =
    check_string label
      (batch_digest ~method_:Api.Probabilistic input)
      (Runner.outcome_digest (stream input))
  in
  same "no list pages" { Pipeline.list_pages = []; detail_pages = [] };
  same "blank list page"
    { Pipeline.list_pages = [ "  \n " ]; detail_pages = [ "<p>x</p>" ] };
  same "no details"
    { Pipeline.list_pages = [ "<p>a b c</p>" ]; detail_pages = [] };
  same "all details blank"
    { Pipeline.list_pages = [ "<p>a b c</p>" ]; detail_pages = [ ""; " " ] }

(* Lazy page source is byte-identical to materialized generation. *)
let test_page_source_identical () =
  let spec = List.hd (corpus_specs ~sites:1 ~seed:71 ~max_rows:2_000) in
  let generated = Family.generate ~max_pages:4 spec in
  let source = Family.page_source ~max_pages:4 spec in
  let rec drain acc =
    match source () with None -> List.rev acc | Some p -> drain (p :: acc)
  in
  check_bool "page_source = generate" true (drain [] = generated.Family.pages)

let () =
  Alcotest.run "stream"
    [
      ( "identity",
        [
          Alcotest.test_case "twelve built-in sites, both methods" `Slow
            test_builtin_sites_identical;
          Alcotest.test_case "corpus sample, both methods" `Slow
            test_corpus_sample_identical;
          Alcotest.test_case "multi-unit site streams" `Slow
            test_multi_unit_identical;
          Alcotest.test_case "validation parity" `Quick
            test_validation_parity;
          Alcotest.test_case "lazy page source identical" `Quick
            test_page_source_identical;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "first record before source exhausted" `Slow
            test_first_record_before_source_exhausted;
          Alcotest.test_case "template estimate narrows" `Slow
            test_refine_monotone;
          Alcotest.test_case "template estimate pinned" `Quick
            test_refine_progress_pinned;
        ] );
      ( "memory",
        [
          Alcotest.test_case "10^5-row site bounded" `Slow
            test_bounded_memory_huge_site;
          Alcotest.test_case "hard cap enforced" `Quick
            test_budget_cap_enforced;
        ] );
    ]
