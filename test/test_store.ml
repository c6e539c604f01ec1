(* The persistent store: log roundtrips across reopen, crash recovery
   (torn tail, flipped byte), the single-writer lock, reader refresh,
   capacity-budgeted compaction, the CRC-32 against its byte-at-a-time
   reference, the versioned codec, the cache's L2 tier, and the
   end-to-end warm-start guarantee of a restarted service. *)

open Tabseg_sitegen
module Store = Tabseg_store.Store
module Codec = Tabseg_store.Codec
module Serve = Tabseg_serve

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tabseg_test_%d_%d.tabstore" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists path) then Unix.mkdir path 0o700;
    path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name -> Sys.remove (Filename.concat dir name))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let segment_file dir = Filename.concat dir "current.seg"

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------- log -------------------------------- *)

let test_put_get_roundtrip () =
  with_dir @@ fun dir ->
  let store = Store.open_store dir in
  let blobs =
    [
      ("plain", "hello");
      ("empty", "");
      (* values embedding the store's own framing bytes must not
         confuse recovery or reads *)
      ("framing", "TSRC\x00\x00\x00\x01TABSTORE");
      ("binary", String.init 4096 (fun i -> Char.chr (i * 7 land 0xff)));
    ]
  in
  List.iter
    (fun (key, value) -> check_bool ("put " ^ key) true (Store.put store ~key value))
    blobs;
  List.iter
    (fun (key, value) ->
      match Store.get store key with
      | Some read -> check_string ("get " ^ key) value read
      | None -> Alcotest.failf "lost %s before reopen" key)
    blobs;
  check_int "length" (List.length blobs) (Store.length store);
  check_bool "missing key" false (Store.mem store "absent");
  Store.close store;
  (* reopen: the index is rebuilt purely from the log *)
  let store = Store.open_store dir in
  List.iter
    (fun (key, value) ->
      match Store.get store key with
      | Some read -> check_string ("reopened get " ^ key) value read
      | None -> Alcotest.failf "lost %s across reopen" key)
    blobs;
  check_int "reopened length" (List.length blobs) (Store.length store);
  Store.close store

let test_reput_is_noop () =
  with_dir @@ fun dir ->
  let store = Store.open_store dir in
  check_bool "first put" true (Store.put store ~key:"k" "value");
  let appended = (Store.stats store).Store.appended_bytes in
  check_bool "re-put accepted" true (Store.put store ~key:"k" "value");
  check_int "no bytes appended by re-put" appended
    (Store.stats store).Store.appended_bytes;
  Store.close store

let test_oversize_put_refused () =
  with_dir @@ fun dir ->
  let store =
    Store.open_store
      ~config:{ Store.default_config with Store.capacity_mb = 1 }
      dir
  in
  check_bool "oversize refused" false
    (Store.put store ~key:"big" (String.make (2 * 1024 * 1024) 'x'));
  check_int "rejected counted" 1 (Store.stats store).Store.put_rejected;
  check_bool "normal put still fine" true (Store.put store ~key:"ok" "v");
  Store.close store

let test_not_a_store () =
  with_dir @@ fun dir ->
  write_file (segment_file dir) "<html>this is no segment log</html>";
  (match Store.open_store dir with
  | exception Store.Not_a_store _ -> ()
  | store ->
    Store.close store;
    Alcotest.fail "opened a foreign file as a store");
  (* and the foreign file was not clobbered *)
  check_string "file untouched" "<html>this is no segment log</html>"
    (read_file (segment_file dir))

(* ----------------------------- recovery ----------------------------- *)

let populate dir entries =
  let store = Store.open_store dir in
  List.iter (fun (key, value) -> ignore (Store.put store ~key value)) entries;
  Store.close store

let test_torn_tail_truncated () =
  with_dir @@ fun dir ->
  populate dir
    [ ("first", String.make 100 'a'); ("second", String.make 100 'b');
      ("third", String.make 100 'c') ];
  (* a crashed writer: the last record is half on disk *)
  let size = (Unix.stat (segment_file dir)).Unix.st_size in
  let fd = Unix.openfile (segment_file dir) [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd (size - 60);
  Unix.close fd;
  let store = Store.open_store dir in
  check_bool "first survives" true (Store.get store "first" = Some (String.make 100 'a'));
  check_bool "second survives" true (Store.mem store "second");
  check_bool "torn third dropped" false (Store.mem store "third");
  check_int "exactly the tail's entries lost" 2 (Store.length store);
  check_bool "tail bytes accounted" true
    ((Store.stats store).Store.truncated_bytes > 0);
  (* the truncated log must accept appends again *)
  check_bool "append after recovery" true (Store.put store ~key:"fourth" "d");
  Store.close store;
  let store = Store.open_store dir in
  check_int "clean after recovery + append" 3 (Store.length store);
  check_bool "no further truncation" true
    ((Store.stats store).Store.truncated_bytes = 0);
  Store.close store

let test_bit_flip_drops_one_entry () =
  with_dir @@ fun dir ->
  let marker = String.make 200 'B' in
  populate dir
    [ ("first", String.make 200 'A'); ("second", marker);
      ("third", String.make 200 'C') ];
  (* flip one byte inside the middle record's value *)
  let contents = read_file (segment_file dir) in
  let rec find i =
    if String.sub contents i (String.length marker) = marker then i
    else find (i + 1)
  in
  let at = find 0 + 100 in
  let flipped =
    String.mapi
      (fun i c -> if i = at then Char.chr (Char.code c lxor 0x40) else c)
      contents
  in
  write_file (segment_file dir) flipped;
  let store = Store.open_store dir in
  check_bool "entry before damage survives" true
    (Store.get store "first" = Some (String.make 200 'A'));
  check_bool "damaged entry dropped" false (Store.mem store "second");
  check_bool "entry after damage survives" true
    (Store.get store "third" = Some (String.make 200 'C'));
  check_int "exactly one entry lost" 2 (Store.length store);
  check_bool "damage counted" true
    ((Store.stats store).Store.corrupt_dropped > 0);
  (* compaction rewrites only intact entries; the garbage is gone *)
  Store.compact store;
  Store.close store;
  let store = Store.open_store dir in
  check_int "compacted store intact" 2 (Store.length store);
  check_int "no damage left after compaction" 0
    (Store.stats store).Store.corrupt_dropped;
  Store.close store

(* ------------------------- lock and sharing ------------------------- *)

let test_single_writer () =
  with_dir @@ fun dir ->
  let writer = Store.open_store dir in
  check_bool "first handle writes" true (Store.role writer = Store.Writer);
  let second = Store.open_store dir in
  check_bool "second handle degrades to reader" true
    (Store.role second = Store.Reader);
  check_bool "reader put queues instead of writing" false
    (Store.put second ~key:"k" "v");
  check_int "queued, not dropped" 1 (Store.stats second).Store.offload_queued;
  check_int "no outright drop" 0 (Store.stats second).Store.put_rejected;
  Store.close second;
  (* with offload off, a reader's put is a counted hard drop *)
  let no_offload =
    Store.open_store
      ~config:{ Store.default_config with Store.offload = false }
      dir
  in
  check_bool "offload off: put refused" false
    (Store.put no_offload ~key:"k2" "v");
  check_int "refusal counted" 1 (Store.stats no_offload).Store.put_rejected;
  check_int "nothing queued" 0 (Store.stats no_offload).Store.offload_queued;
  Store.close no_offload;
  Store.close writer;
  (* the lock dies with its holder *)
  let reopened = Store.open_store dir in
  check_bool "lock released on close" true (Store.role reopened = Store.Writer);
  Store.close reopened;
  let readonly = Store.open_store ~readonly:true dir in
  check_bool "explicit readonly" true (Store.role readonly = Store.Reader);
  Store.close readonly

let test_reader_refresh_sees_appends () =
  with_dir @@ fun dir ->
  let writer = Store.open_store dir in
  ignore (Store.put writer ~key:"before" "1");
  let reader = Store.open_store dir in
  check_bool "reader sees existing entry" true (Store.mem reader "before");
  ignore (Store.put writer ~key:"after" "2");
  check_bool "append invisible before refresh" false (Store.mem reader "after");
  Store.refresh reader;
  check_bool "refresh picks up the append" true
    (Store.get reader "after" = Some "2");
  (* a compaction swaps the segment file under the reader *)
  Store.compact writer;
  ignore (Store.put writer ~key:"post-compact" "3");
  Store.refresh reader;
  check_bool "refresh follows the segment swap" true
    (Store.get reader "post-compact" = Some "3");
  check_bool "old entries survive the swap" true (Store.mem reader "before");
  Store.close reader;
  Store.close writer

let test_reader_offload_folds () =
  with_dir @@ fun dir ->
  let queues () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name ->
           String.length name >= 8 && String.sub name 0 8 = "offload-")
  in
  let writer = Store.open_store dir in
  ignore (Store.put writer ~key:"w" "1");
  let reader = Store.open_store dir in
  check_bool "reader put queues, not visible yet" false
    (Store.put reader ~key:"q" "2");
  check_int "queued counted" 1 (Store.stats reader).Store.offload_queued;
  check_int "one offload queue on disk" 1 (List.length (queues ()));
  check_bool "writer does not see it before folding" false
    (Store.mem writer "q");
  (* the writer's refresh tick folds the queue into the log… *)
  Store.refresh writer;
  check_bool "folded into the writer's log" true
    (Store.get writer "q" = Some "2");
  check_int "fold counted" 1 (Store.stats writer).Store.offload_folded;
  check_int "queue unlinked after fold" 0 (List.length (queues ()));
  (* …and the reader picks its own put back up like any other append. *)
  check_bool "still invisible to the reader" false (Store.mem reader "q");
  Store.refresh reader;
  check_bool "reader sees its put after fold + refresh" true
    (Store.get reader "q" = Some "2");
  (* A later put starts a fresh queue (the old file was claimed by
     rename); that queue survives both closes and is folded when the
     next writer opens the store. *)
  check_bool "second reader put queues" false (Store.put reader ~key:"r" "3");
  check_int "fresh queue on disk" 1 (List.length (queues ()));
  Store.close reader;
  Store.close writer;
  let reopened = Store.open_store dir in
  check_bool "fold on open" true (Store.get reopened "r" = Some "3");
  check_int "fold on open counted" 1
    (Store.stats reopened).Store.offload_folded;
  check_int "no queues left behind" 0 (List.length (queues ()));
  check_bool "earlier entries intact" true
    (Store.mem reopened "w" && Store.mem reopened "q");
  Store.close reopened

(* ---------------------------- compaction ---------------------------- *)

let test_compaction_bounds_and_evicts_oldest () =
  with_dir @@ fun dir ->
  let capacity_mb = 1 in
  let store =
    Store.open_store
      ~config:{ Store.default_config with Store.capacity_mb }
      dir
  in
  let value = String.make (64 * 1024) 'v' in
  for i = 1 to 40 do
    ignore (Store.put store ~key:(Printf.sprintf "key-%02d" i) value)
  done;
  let s = Store.stats store in
  check_bool "compactions happened" true (s.Store.compactions > 0);
  check_bool "log stays within budget" true
    (s.Store.file_bytes <= capacity_mb * 1024 * 1024);
  check_bool "newest entry survives" true (Store.mem store "key-40");
  check_bool "oldest entry evicted" false (Store.mem store "key-01");
  Store.close store;
  (* the compacted segment is a valid store *)
  let store = Store.open_store dir in
  check_bool "reopen after compactions" true
    (Store.get store "key-40" = Some value);
  Store.close store

(* ------------------------------ CRC-32 ------------------------------ *)

module Crc32 = Tabseg_store.Crc32

(* The byte-at-a-time table loop the store and the wire used before
   slicing-by-8, kept verbatim as the reference: every value must stay
   the same, or persisted logs and peers on an older build break. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_string s off len =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let test_crc32_known_answers () =
  check_int "CRC-32 check value" 0xCBF43926 (Crc32.string "123456789" 0 9);
  check_int "empty string" 0 (Crc32.string "" 0 0);
  check_int "empty window" 0 (Crc32.string "123456789" 4 0);
  check_int "window of a larger string" 0xCBF43926
    (Crc32.string "xx123456789yyy" 2 9);
  check_int "bytes = string" 0xCBF43926
    (Crc32.bytes (Bytes.of_string "123456789") 0 9);
  List.iter
    (fun (off, len) ->
      match Crc32.string "123456789" off len with
      | _ -> Alcotest.failf "window (%d, %d) must be refused" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (0, 10); (9, 1); (5, 5) ]

(* Random strings up to a few KB, random windows: unaligned starts and
   every tail length 0-7 past the last 8-byte step. *)
let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"slicing-by-8 = byte-at-a-time reference"
    ~count:500
    QCheck.(triple (string_of_size Gen.(0 -- 4096)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Crc32.string s off len = crc32_string s off len
      && Crc32.string s 0 n = crc32_string s 0 n)

(* ------------------------------ codec ------------------------------- *)

let superpages_input () =
  let generated = Sites.generate (Sites.find "SuperPages") in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index:0
  in
  { Tabseg.Pipeline.list_pages; detail_pages }

let induced_template () =
  let input = superpages_input () in
  Tabseg_template.Template.induce
    (List.map Tabseg_token.Tokenizer.tokenize input.Tabseg.Pipeline.list_pages)

let render_result (result : Tabseg.Api.result) =
  Format.asprintf "%a" Tabseg.Segmentation.pp result.Tabseg.Api.segmentation

let test_codec_template_roundtrip () =
  let template = induced_template () in
  match Codec.decode_template (Codec.encode_template template) with
  | None -> Alcotest.fail "template failed to roundtrip"
  | Some decoded ->
    Alcotest.(check (list string))
      "template keys survive"
      (Tabseg_template.Template.keys template)
      (Tabseg_template.Template.keys decoded)

let test_codec_result_roundtrip () =
  let result =
    Tabseg.Api.segment ~method_:Tabseg.Api.Probabilistic (superpages_input ())
  in
  let body = Codec.encode_body result in
  match Codec.decode_result (Codec.result_blob body) with
  | None -> Alcotest.fail "result failed to roundtrip"
  | Some (decoded, decoded_body) ->
    check_bool "the blob carries the body" true (decoded_body = body);
    check_string "segmentation renders identically" (render_result result)
      (render_result decoded)

let test_codec_rejects_damage () =
  let blob = Codec.encode_template (induced_template ()) in
  let flip at s =
    String.mapi
      (fun i c -> if i = at then Char.chr (Char.code c lxor 1) else c)
      s
  in
  check_bool "tampered payload is a miss" true
    (Codec.decode_template (flip (String.length blob - 1) blob) = None);
  check_bool "tampered digest is a miss" true
    (Codec.decode_template (flip 10 blob) = None);
  check_bool "version skew is a miss" true
    (Codec.decode_template (flip 5 blob) = None);
  check_bool "kind confusion is a miss" true
    (Codec.decode_result blob = None);
  check_bool "truncation is a miss" true
    (Codec.decode_template (String.sub blob 0 (String.length blob / 2)) = None);
  check_bool "empty blob is a miss" true (Codec.decode_template "" = None)

(* ------------------------- the cache L2 tier ------------------------- *)

let test_cache_l2_promotion () =
  with_dir @@ fun dir ->
  let input = superpages_input () in
  let key = Tabseg.Pipeline.page_set_key input.Tabseg.Pipeline.list_pages in
  let template = induced_template () in
  (* first process: write-through *)
  let store = Store.open_store dir in
  let cache = Serve.Cache.create ~store () in
  let hook = Serve.Cache.template_cache cache in
  hook.Tabseg.Pipeline.store_template ~key template;
  Store.close store;
  (* "restarted" process: empty L1, warm store *)
  let store = Store.open_store dir in
  let cache = Serve.Cache.create ~store () in
  let hook = Serve.Cache.template_cache cache in
  (match hook.Tabseg.Pipeline.find_template ~key with
  | None -> Alcotest.fail "restart lost the template"
  | Some found ->
    Alcotest.(check (list string))
      "hydrated template identical"
      (Tabseg_template.Template.keys template)
      (Tabseg_template.Template.keys found));
  let stats = Serve.Cache.stats cache in
  (match stats.Serve.Cache.persist with
  | None -> Alcotest.fail "no persist stats"
  | Some p -> check_int "one L2 template hit" 1 p.Serve.Cache.template_hits);
  (* promoted into L1: the next lookup does not touch the store *)
  let gets_before =
    match (Serve.Cache.stats cache).Serve.Cache.persist with
    | Some p -> p.Serve.Cache.store.Store.gets
    | None -> 0
  in
  ignore (hook.Tabseg.Pipeline.find_template ~key);
  let gets_after =
    match (Serve.Cache.stats cache).Serve.Cache.persist with
    | Some p -> p.Serve.Cache.store.Store.gets
    | None -> 0
  in
  check_int "second lookup served from L1" gets_before gets_after;
  Store.close store

let test_cache_treats_garbage_as_miss () =
  with_dir @@ fun dir ->
  let store = Store.open_store dir in
  ignore (Store.put store ~key:"T:somekey" "not a codec blob at all");
  let cache = Serve.Cache.create ~store () in
  let hook = Serve.Cache.template_cache cache in
  check_bool "undecodable blob is a miss" true
    (hook.Tabseg.Pipeline.find_template ~key:"somekey" = None);
  Store.close store

(* ----------------------- service warm start ------------------------- *)

let site_requests name =
  let site = Sites.find name in
  let generated = Sites.generate site in
  List.mapi
    (fun page_index _ ->
      let list_pages, detail_pages =
        Sites.segmentation_input generated ~page_index
      in
      {
        Serve.Service.id = Printf.sprintf "%s#%d" name page_index;
        site = name;
        input = { Tabseg.Pipeline.list_pages; detail_pages };
      })
    generated.Sites.pages

let render_responses responses =
  List.map
    (fun (response : Serve.Service.response) ->
      match response.Serve.Service.outcome with
      | Ok result -> render_result result
      | Error error -> "ERROR: " ^ Serve.Service.error_message error)
    responses

let run_service ~store_dir requests =
  let config =
    { Serve.Service.default_config with Serve.Service.store_dir = Some store_dir }
  in
  let service = Serve.Service.create ~config () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service)
  @@ fun () ->
  let responses = Serve.Service.run_batch service requests in
  let persist =
    match Serve.Service.cache_stats service with
    | Some { Serve.Cache.persist = Some p; _ } -> Some p
    | _ -> None
  in
  (render_responses responses, responses, persist)

let test_service_warm_start () =
  with_dir @@ fun dir ->
  let requests = site_requests "ButlerCounty" in
  let cold, _, _ = run_service ~store_dir:dir requests in
  (* restart: fresh process state, same store directory *)
  let warm, responses, persist = run_service ~store_dir:dir requests in
  Alcotest.(check (list string))
    "warm restart byte-identical to the cold run" cold warm;
  List.iter
    (fun (r : Serve.Service.response) ->
      check_bool ("hit " ^ r.Serve.Service.id) true r.Serve.Service.cache_hit)
    responses;
  match persist with
  | None -> Alcotest.fail "no persistent tier"
  | Some p ->
    check_int "every request served from the store"
      (List.length requests) p.Serve.Cache.result_hits

let test_concurrent_services_share_store () =
  with_dir @@ fun dir ->
  let requests = site_requests "ButlerCounty" in
  (* two live services on one directory: the first owns the writer
     lock, the second degrades to reader — and both serve correctly *)
  let config =
    { Serve.Service.default_config with Serve.Service.store_dir = Some dir }
  in
  let a = Serve.Service.create ~config () in
  let b = Serve.Service.create ~config () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Service.shutdown b;
      Serve.Service.shutdown a)
  @@ fun () ->
  (match (Serve.Service.store_stats a, Serve.Service.store_stats b) with
  | Some sa, Some sb ->
    check_bool "first service writes" true (sa.Store.role = Store.Writer);
    check_bool "second service reads" true (sb.Store.role = Store.Reader)
  | _ -> Alcotest.fail "missing store stats");
  let ra = render_responses (Serve.Service.run_batch a requests) in
  let rb = render_responses (Serve.Service.run_batch b requests) in
  Alcotest.(check (list string)) "both services agree" ra rb;
  (* the store was not corrupted by the concurrent use *)
  let probe = Store.open_store ~readonly:true dir in
  check_bool "store opens cleanly" true (Store.length probe > 0);
  check_int "no damage recorded" 0 (Store.stats probe).Store.corrupt_dropped;
  Store.close probe

let () =
  Alcotest.run "store"
    [
      ( "log",
        [
          Alcotest.test_case "put/get roundtrip across reopen" `Quick
            test_put_get_roundtrip;
          Alcotest.test_case "re-put of existing key is a no-op" `Quick
            test_reput_is_noop;
          Alcotest.test_case "oversize put refused" `Quick
            test_oversize_put_refused;
          Alcotest.test_case "foreign file refused, not clobbered" `Quick
            test_not_a_store;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn tail truncated on open" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "flipped byte drops exactly one entry" `Quick
            test_bit_flip_drops_one_entry;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "single writer, readers degrade" `Quick
            test_single_writer;
          Alcotest.test_case "reader refresh sees appends and swaps" `Quick
            test_reader_refresh_sees_appends;
          Alcotest.test_case "reader offload queue folds into the log" `Quick
            test_reader_offload_folds;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "bounded log, oldest evicted" `Quick
            test_compaction_bounds_and_evicts_oldest;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
          QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
        ] );
      ( "codec",
        [
          Alcotest.test_case "template roundtrip" `Quick
            test_codec_template_roundtrip;
          Alcotest.test_case "result roundtrip" `Quick
            test_codec_result_roundtrip;
          Alcotest.test_case "damage, skew and confusion are misses" `Quick
            test_codec_rejects_damage;
        ] );
      ( "cache",
        [
          Alcotest.test_case "L2 hit promotes into L1" `Quick
            test_cache_l2_promotion;
          Alcotest.test_case "garbage blob is a miss" `Quick
            test_cache_treats_garbage_as_miss;
        ] );
      ( "service",
        [
          Alcotest.test_case "warm start: 100% store hits, identical" `Quick
            test_service_warm_start;
          Alcotest.test_case "two services share one store safely" `Quick
            test_concurrent_services_share_store;
        ] );
    ]
