module Lockcheck = Tabseg_lockcheck.Lockcheck

(* Log-bucketed histograms: five buckets per decade over [1e-5 s, 1e2 s],
   one underflow bucket below and one overflow bucket above. *)

let buckets_per_decade = 5
let min_exponent = -5 (* 10 µs *)
let max_exponent = 2 (* 100 s *)

let num_buckets =
  ((max_exponent - min_exponent) * buckets_per_decade) + 2

(* Upper bound of bucket [i] (the underflow bucket 0 ends at 1e-5). *)
let bucket_bound i =
  10. ** (float_of_int min_exponent
         +. (float_of_int i /. float_of_int buckets_per_decade))

let bucket_of seconds =
  if seconds <= bucket_bound 0 then 0
  else begin
    let position =
      (Float.log10 seconds -. float_of_int min_exponent)
      *. float_of_int buckets_per_decade
    in
    (* The sample belongs to the first bucket whose upper bound is >= it. *)
    let i = 1 + int_of_float (Float.floor position) in
    let i = if bucket_bound (i - 1) >= seconds then i - 1 else i in
    min (max i 0) (num_buckets - 1)
  end

type counter = {
  c_mutex : Lockcheck.t;
  mutable c_value : int;
}

type gauge = {
  g_mutex : Lockcheck.t;
  mutable g_value : float;
}

type histogram = {
  h_mutex : Lockcheck.t;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  mutex : Lockcheck.t;  (* guards the name tables, not the metrics *)
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    mutex = Lockcheck.create ~name:"metrics.registry" ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let intern table mutex name make =
  Lockcheck.protect mutex (fun () ->
      match Hashtbl.find_opt table name with
      | Some metric -> metric
      | None ->
        let metric = make () in
        Hashtbl.replace table name metric;
        metric)

let counter t name =
  intern t.counters t.mutex name (fun () ->
      { c_mutex = Lockcheck.create ~name:("metrics.counter:" ^ name) (); c_value = 0 })

let incr ?(by = 1) counter =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotone";
  Lockcheck.protect counter.c_mutex (fun () ->
      counter.c_value <- counter.c_value + by)

let counter_value counter = Lockcheck.protect counter.c_mutex (fun () -> counter.c_value)

let gauge t name =
  intern t.gauges t.mutex name (fun () ->
      { g_mutex = Lockcheck.create ~name:("metrics.gauge:" ^ name) (); g_value = 0. })

let set gauge value = Lockcheck.protect gauge.g_mutex (fun () -> gauge.g_value <- value)
let gauge_value gauge = Lockcheck.protect gauge.g_mutex (fun () -> gauge.g_value)

let histogram t name =
  intern t.histograms t.mutex name (fun () ->
      {
        h_mutex = Lockcheck.create ~name:("metrics.histogram:" ^ name) ();
        h_buckets = Array.make num_buckets 0;
        h_count = 0;
        h_sum = 0.;
        h_min = infinity;
        h_max = neg_infinity;
      })

let observe histogram seconds =
  let seconds = Float.max seconds 0. in
  Lockcheck.protect histogram.h_mutex (fun () ->
      let i = bucket_of seconds in
      histogram.h_buckets.(i) <- histogram.h_buckets.(i) + 1;
      histogram.h_count <- histogram.h_count + 1;
      histogram.h_sum <- histogram.h_sum +. seconds;
      histogram.h_min <- Float.min histogram.h_min seconds;
      histogram.h_max <- Float.max histogram.h_max seconds)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summary histogram =
  Lockcheck.protect histogram.h_mutex (fun () ->
      if histogram.h_count = 0 then
        { count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }
      else begin
        let quantile q =
          let rank =
            int_of_float (Float.ceil (q *. float_of_int histogram.h_count))
          in
          let rank = max rank 1 in
          let cumulative = ref 0 in
          let result = ref histogram.h_max in
          (try
             for i = 0 to num_buckets - 1 do
               cumulative := !cumulative + histogram.h_buckets.(i);
               if !cumulative >= rank then begin
                 result := bucket_bound i;
                 raise Exit
               end
             done
           with Exit -> ());
          (* A bucket bound can overshoot the true extremes; clamp to
             what was actually seen. *)
          Float.min (Float.max !result histogram.h_min) histogram.h_max
        in
        {
          count = histogram.h_count;
          sum = histogram.h_sum;
          min = histogram.h_min;
          max = histogram.h_max;
          p50 = quantile 0.50;
          p95 = quantile 0.95;
          p99 = quantile 0.99;
        }
      end)

let mean s = if s.count = 0 then 0. else s.sum /. float_of_int s.count

(* ------------------------------- dumps ------------------------------ *)

let sorted_names table =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) table [])

let snapshot t =
  Lockcheck.protect t.mutex (fun () ->
      ( List.map (fun n -> (n, Hashtbl.find t.counters n)) (sorted_names t.counters),
        List.map (fun n -> (n, Hashtbl.find t.gauges n)) (sorted_names t.gauges),
        List.map
          (fun n -> (n, Hashtbl.find t.histograms n))
          (sorted_names t.histograms) ))

let values t =
  let counters, gauges, _ = snapshot t in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun (name, c) -> (name, float_of_int (counter_value c))) counters
    @ List.map (fun (name, g) -> (name, gauge_value g)) gauges)

let report t =
  let counters, gauges, histograms = snapshot t in
  let buffer = Buffer.create 512 in
  if counters <> [] then Buffer.add_string buffer "counters:\n";
  List.iter
    (fun (name, c) ->
      Buffer.add_string buffer
        (Printf.sprintf "  %-40s %d\n" name (counter_value c)))
    counters;
  if gauges <> [] then Buffer.add_string buffer "gauges:\n";
  List.iter
    (fun (name, g) ->
      Buffer.add_string buffer
        (Printf.sprintf "  %-40s %.3f\n" name (gauge_value g)))
    gauges;
  if histograms <> [] then
    Buffer.add_string buffer
      "histograms:                                   \
       count      mean       p50       p95       p99       max\n";
  List.iter
    (fun (name, h) ->
      let s = summary h in
      let mean = mean s in
      let ms x = x *. 1000. in
      Buffer.add_string buffer
        (Printf.sprintf "  %-40s %7d %7.2fms %7.2fms %7.2fms %7.2fms %7.2fms\n"
           name s.count (ms mean) (ms s.p50) (ms s.p95) (ms s.p99) (ms s.max)))
    histograms;
  Buffer.contents buffer

(* RFC 8259 string escaping. Metric names are caller-controlled (stage
   labels flow in from the instrumentation bus), so every control
   character, the backslash and the quote must come out escaped — a
   hostile label must never be able to break out of its JSON string.
   Bytes >= 0x20 other than '"' and '\\' pass through verbatim (UTF-8
   sequences survive untouched); DEL and friends are legal raw in JSON
   but escaped anyway for the benefit of line-oriented consumers. *)
let json_string s =
  let buffer = Buffer.create (String.length s + 2) in
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\b' -> Buffer.add_string buffer "\\b"
      | '\t' -> Buffer.add_string buffer "\\t"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\012' -> Buffer.add_string buffer "\\f"
      | '\r' -> Buffer.add_string buffer "\\r"
      | c when Char.code c < 32 || Char.code c = 127 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"';
  Buffer.contents buffer

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let to_json t =
  let counters, gauges, histograms = snapshot t in
  json_object
    [
      ( "counters",
        json_object
          (List.map
             (fun (name, c) -> (name, string_of_int (counter_value c)))
             counters) );
      ( "gauges",
        json_object
          (List.map
             (fun (name, g) -> (name, Printf.sprintf "%g" (gauge_value g)))
             gauges) );
      ( "histograms",
        json_object
          (List.map
             (fun (name, h) ->
               let s = summary h in
               ( name,
                 json_object
                   [
                     ("count", string_of_int s.count);
                     ("sum", Printf.sprintf "%g" s.sum);
                     ("min", Printf.sprintf "%g" s.min);
                     ("max", Printf.sprintf "%g" s.max);
                     ("p50", Printf.sprintf "%g" s.p50);
                     ("p95", Printf.sprintf "%g" s.p95);
                     ("p99", Printf.sprintf "%g" s.p99);
                   ] ))
             histograms) );
    ]

let attach_stages t =
  Tabseg.Instrument.subscribe (fun event ->
      observe
        (histogram t ("stage." ^ event.Tabseg.Instrument.stage))
        event.Tabseg.Instrument.seconds)
