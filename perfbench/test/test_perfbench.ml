(* The benchmark's own arithmetic: percentiles under the
   ten-samples-beyond rule, span self time, and the result-line writer. *)

open Perfbench_measure

let floats = Alcotest.(float 1e-12)

let nearest_rank () =
  Alcotest.(check int) "p50 of 10" 5 (Stats.nearest_rank 10 0.5);
  Alcotest.(check int) "p50 of 11" 6 (Stats.nearest_rank 11 0.5);
  Alcotest.(check int) "p90 of 100" 90 (Stats.nearest_rank 100 0.9);
  Alcotest.(check int) "p99 of 1000" 990 (Stats.nearest_rank 1000 0.99);
  Alcotest.(check int) "tiny p clamps to 1" 1 (Stats.nearest_rank 7 0.001);
  Alcotest.(check int) "p100 is the max" 7 (Stats.nearest_rank 7 1.0)

let percentile () =
  let a = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check floats "median" 3. (Stats.median a);
  Alcotest.check floats "p20" 1. (Stats.percentile a 0.2);
  Alcotest.check floats "p21" 2. (Stats.percentile a 0.21);
  Alcotest.check floats "max" 5. (Stats.percentile a 1.0);
  Alcotest.(check (array (float 0.))) "input left unsorted" [| 5.; 1.; 4.; 2.; 3. |] a;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 0.5))

let ten_beyond () =
  Alcotest.(check (option int)) "10 samples support nothing" None
    (Stats.supported_rank 10 0.5);
  Alcotest.(check (option int)) "11 samples: rank 1 only" (Some 1)
    (Stats.supported_rank 11 0.99);
  Alcotest.(check (option int)) "p99 of 1000 is supported" (Some 990)
    (Stats.supported_rank 1000 0.99);
  Alcotest.(check (option int)) "p99 of 999 lowered to 989" (Some 989)
    (Stats.supported_rank 999 0.99);
  Alcotest.(check (option int)) "p90 of 100 is supported" (Some 90)
    (Stats.supported_rank 100 0.9);
  Alcotest.(check (option int)) "p90 of 28 lowered to 18" (Some 18)
    (Stats.supported_rank 28 0.9);
  Alcotest.(check (option int)) "low percentiles are not raised" (Some 14)
    (Stats.supported_rank 28 0.5);
  let sample = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  (match Stats.tail sample ~cap:0.99 with
  | Some (p, v) ->
    Alcotest.check floats "p99 percentile" 0.99 p;
    Alcotest.check floats "p99 value" 990. v
  | None -> Alcotest.fail "1000 samples support p99");
  (match Stats.tail (Array.init 28 float_of_int) ~cap:0.9 with
  | Some (p, v) ->
    Alcotest.check floats "p lowered to 18/28" (18. /. 28.) p;
    Alcotest.check floats "value at rank 18" 17. v
  | None -> Alcotest.fail "28 samples support a tail");
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "10 samples: no tail" None
    (Stats.tail (Array.make 10 1.) ~cap:0.99)

let mean () =
  Alcotest.check floats "empty" 0. (Stats.mean [||]);
  Alcotest.check floats "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let span ?parent id name start stop =
  { Trace.id; parent; request = 0; name; start; stop }

let self_time () =
  let root = span 0 "root" 0. 10. in
  let a = span ~parent:0 1 "a" 1. 3. in
  let b = span ~parent:0 2 "b" 2. 5. in (* overlaps a: union is [1, 5] *)
  let c = span ~parent:0 3 "c" 9. 12. in (* half outside the root *)
  let grandchild = span ~parent:1 4 "g" 1. 2. in
  (* root: 10 minus the union [1, 5] of a and b minus c's [9, 10];
     a: 2 minus its grandchild's 1 *)
  Alcotest.(check (list (pair string (float 1e-12))))
    "self time by name"
    [ ("a", 1.); ("b", 3.); ("c", 3.); ("g", 1.); ("root", 5.) ]
    (Trace.self_times [ root; a; b; c; grandchild ]);
  Alcotest.(check (list (pair string (float 1e-12))))
    "totals add up across spans of one name"
    [ ("a", 3.); ("root", 7.) ]
    (Trace.self_times [ root; a; { a with Trace.id = 5; start = 6.; stop = 7. } ])

let recorder () =
  let t = Trace.create () in
  let r =
    Trace.span t ~request:7 "outer" (fun () ->
        Trace.record t "stage" ~start:0. ~stop:0.;
        Trace.span t "inner" (fun () -> 42))
  in
  Alcotest.(check int) "result passes through" 42 r;
  (try Trace.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Trace.spans t with
  | [ outer; stage; inner; boom ] ->
    Alcotest.(check (option int)) "outer is a root" None outer.Trace.parent;
    Alcotest.(check (option int)) "bus stage nests" (Some outer.Trace.id)
      stage.Trace.parent;
    Alcotest.(check (option int)) "inner nests" (Some outer.Trace.id)
      inner.Trace.parent;
    Alcotest.(check int) "request inherited" 7 inner.Trace.request;
    Alcotest.(check (option int)) "raising span recorded as root" None
      boom.Trace.parent;
    Alcotest.(check bool) "ordered clock" true
      (outer.Trace.start <= inner.Trace.start
      && inner.Trace.stop <= outer.Trace.stop)
  | spans -> Alcotest.failf "expected 4 spans, got %d" (List.length spans)

let numbers () =
  Alcotest.(check string) "integer" "5" (Report.number 5.);
  Alcotest.(check string) "shortest" "0.1" (Report.number 0.1);
  Alcotest.(check string) "all digits kept" "1.2034567891234567"
    (Report.number 1.2034567891234567);
  Alcotest.(check string) "exponent" "1e-05" (Report.number 1e-05);
  List.iter
    (fun x ->
      Alcotest.(check bool) "round trip" true
        (float_of_string (Report.number x) = x))
    [ 1. /. 3.; 123456.789; 2e-9; -0.25; 1e300 ];
  Alcotest.check_raises "nan" (Invalid_argument "Report.number: not a finite number")
    (fun () -> ignore (Report.number Float.nan));
  Alcotest.check_raises "inf" (Invalid_argument "Report.number: not a finite number")
    (fun () -> ignore (Report.number Float.infinity))

let result_line () =
  Alcotest.(check string) "line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"q\\\"x\": \
     {\"value\": 2, \"unit\": \"1/s\"}}}"
    (Report.result_line ~correct:true ~attempted:3 ~failed:0
       [ { Report.name = "latency_ms"; value = 1.25; unit_ = "ms" };
         { Report.name = "q\"x"; value = 2.; unit_ = "1/s" } ]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Report.result_line: duplicate metric name") (fun () ->
      let m = { Report.name = "a"; value = 1.; unit_ = "s" } in
      ignore (Report.result_line ~correct:true ~attempted:1 ~failed:0 [ m; m ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "percentile" `Quick percentile;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond;
          Alcotest.test_case "mean" `Quick mean;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "recorder" `Quick recorder;
        ] );
      ( "report",
        [
          Alcotest.test_case "numbers" `Quick numbers;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
