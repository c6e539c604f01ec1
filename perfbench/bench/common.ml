(* What every workload hands back to the main program, and the measuring
   helpers they share. *)

module Report = Perfbench_measure.Report
module Stats = Perfbench_measure.Stats
module Trace = Perfbench_measure.Trace

type outcome = {
  attempted : int;  (** operations the run issued *)
  failed : int;  (** typed errors, refusals, nonzero failure counters,
                     mismatches against the reference *)
  checks : (string * bool) list;  (** named output checks *)
  metrics : Report.metric list;
  notes : (string * string) list;  (** sample counts, percentiles, context *)
}

type run = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;  (** the built [tabseg] executable *)
  work_dir : string;  (** scratch space inside the checkout *)
}

let now = Unix.gettimeofday
let ms seconds = seconds *. 1e3
let metric name unit_ value = { Report.name; value; unit_ }

let timed f =
  let start = now () in
  let result = f () in
  (result, now () -. start)

(* Host-speed calibration for the in-process workloads.

   The benchmark's host shares its cores with other machines' work, and
   the speed it gives one process moves by a quarter or more, over
   seconds as well as minutes. A fixed CPU kernel owned by the benchmark
   (no code of the system under test) is timed next to the work, never
   while the system works, and timings are multiplied by
   [(reference_s / kernel time) ** exponent]: the figure the work would
   have read on a host that runs the kernel in [reference_s]. The
   unscaled figures are printed beside the scaled ones.

   The exponent is measured: on the 2-vCPU host the benchmark was built
   on, the log of a paper page's time moved 0.47-0.62 times the log of the
   kernel time taken around it (correlation 0.63-0.76 over 60 pages), and
   a run's throughput moved half as much as the run's kernel median
   (correlation 0.96 over four runs; 0.4-0.8 as much in later sets of ten
   runs): the kernel, all arithmetic on data that fits in the
   first-level cache, slows down about twice as much as the pipeline when
   the host is busy.

   serve-warm is scaled by its own kernel instead (see {!Exchange}). *)
module Calibration = struct
  let reference_s = 0.005
  let exponent = 0.5
  let samples = ref []

  (* Work of the pipeline's two shapes on data built once: a log-space
     forward recursion over 64 states (the HMM's) and hashing words into
     a table of counts (the front half's). It allocates nothing, so the
     collector never runs inside it and its time does not depend on what
     the heap holds. *)
  let weights = Array.init 4096 (fun i -> 0.5 +. (float_of_int (i * 7919 mod 1009) /. 1009.))
  let states = Array.make 64 0.

  let words =
    Array.init 1024 (fun i ->
        String.init (6 + (i mod 27)) (fun j -> Char.chr (97 + (((i * 31) + (j * 7)) mod 26))))

  let counts = Array.make 4096 0

  let kernel () =
    let acc = ref 0 in
    for _ = 1 to 6 do
      Array.fill states 0 64 0.;
      for step = 0 to 47 do
        for s = 0 to 63 do
          let best = ref neg_infinity in
          for p = 0 to 63 do
            let v = states.(p) +. weights.(((step * 64) + (s * 63) + p) land 4095) in
            if v > !best then best := v
          done;
          states.(s) <- (!best +. log (1. +. exp (-.weights.((s + step) land 4095)))) *. 0.5
        done
      done;
      for round = 0 to 23 do
        for i = 0 to Array.length words - 1 do
          let k = (Hashtbl.hash words.(i) + round) land 4095 in
          counts.(k) <- counts.(k) + 1;
          acc := !acc lxor counts.(k * 17 land 4095)
        done
      done
    done;
    !acc + Float.to_int states.(0)

  (* The kernel's time, without recording it. *)
  let time () =
    let started = now () in
    ignore (Sys.opaque_identity (kernel ()));
    now () -. started

  let record kernel_s = samples := kernel_s :: !samples

  let sample ?(times = 1) () =
    for _ = 1 to times do
      record (time ())
    done

  (* What to multiply a time by (and divide a rate by) when the kernel
     took [kernel_s] next to it. *)
  let factor kernel_s = (reference_s /. kernel_s) ** exponent

  (* [f ()] with the median of the kernel timed three times before and
     three times after it. *)
  let around f =
    let before = Array.init 3 (fun _ -> time ()) in
    let result = f () in
    let after = Array.init 3 (fun _ -> time ()) in
    (result, Stats.median (Array.append before after))

  let describe () =
    Printf.sprintf "kernel median %.4f ms over %d samples (reference %.1f ms, exponent %g)"
      (Stats.median (Array.of_list !samples) *. 1e3)
      (List.length !samples) (reference_s *. 1e3) exponent

  (* The factor for the run, from the median of every recorded sample,
     with a note on what it rests on. *)
  let scale () =
    sample ~times:3 ();
    let factor = factor (Stats.median (Array.of_list !samples)) in
    (factor, Printf.sprintf "%s: timings x %.4f" (describe ()) factor)
end

(* Host-speed calibration for serve-warm, whose requests the compute
   kernel does not track: they are mostly copying and hashing page-sized
   messages and hand-offs between processes. The exchange kernel does the
   same with an echo process of the benchmark's own, on the same CPU: 200
   round trips of a 16 KB message over a Unix socket pair, each message
   hashed on both sides. A timing is multiplied by [reference_s / exchange
   time] (rates divided). On the 2-vCPU host the benchmark was built on,
   over 30 phases of five runs, the log of a phase's p50, p95 and
   throughput moved 0.85-0.93 times the log of the exchange time taken
   around the phase (correlation 0.96-0.98), and a daemon's set-up 1.02
   times (0.96); in two other batches the phases moved 1.4-1.6 times
   (correlation 0.82-0.90). An exponent between the two did no better
   over the three batches than none. *)
module Exchange = struct
  let reference_s = 0.012
  let size = 16384
  let rounds = 200
  let echo = ref None

  let read_full fd buf =
    let rec go off =
      if off < size then
        match Unix.read fd buf off (size - off) with
        | 0 -> raise End_of_file
        | n -> go (off + n)
    in
    go 0

  let write_full fd buf =
    let rec go off = if off < size then go (off + Unix.write fd buf off (size - off)) in
    go 0

  (* Fork the echo process. It leaves with [_exit] when the benchmark
     closes its end, so it never flushes the parent's buffered output a
     second time. *)
  let start () =
    let mine, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    flush_all ();
    match Unix.fork () with
    | 0 ->
      Unix.close mine;
      let buf = Bytes.create size in
      (try
         while true do
           read_full theirs buf;
           ignore (Sys.opaque_identity (Digest.bytes buf));
           write_full theirs buf
         done
       with _ -> ());
      Unix._exit 0
    | pid ->
      Unix.close theirs;
      echo := Some (pid, mine)

  (* Close the benchmark's end and wait for the echo process to end. *)
  let stop () =
    match !echo with
    | None -> ()
    | Some (pid, fd) ->
      echo := None;
      Unix.close fd;
      ignore (Unix.waitpid [] pid)

  let message = Bytes.init size (fun i -> Char.chr (i * 7 land 255))

  let time () =
    match !echo with
    | None -> invalid_arg "Exchange.time: the echo process is not running"
    | Some (_, fd) ->
      let started = now () in
      for _ = 1 to rounds do
        write_full fd message;
        read_full fd message;
        ignore (Sys.opaque_identity (Digest.bytes message))
      done;
      now () -. started

  (* The median of three exchanges: one calibration point. *)
  let point () = Stats.median (Array.init 3 (fun _ -> time ()))

  let factor exchange_s = reference_s /. exchange_s
end

(* The timing figures of the end-to-end metrics. *)
type timings = {
  setup_s : float;
  throughput : float;  (** per second *)
  p50_ms : float;
  tail_ms : float;
}

(* [t] scaled by [factor] (see {!Calibration}): times multiplied, the rate
   divided. *)
let scale_timings factor t =
  {
    setup_s = t.setup_s *. factor;
    throughput = t.throughput /. factor;
    p50_ms = t.p50_ms *. factor;
    tail_ms = t.tail_ms *. factor;
  }

(* The end-to-end metrics every workload reports, in BENCHMARK.json order:
   the [reported] timings, which are the [raw] ones or scaled ones as the
   [calibration] note says. The notes carry the raw figures. *)
let end_to_end ~raw ~reported ~calibration ~peak_mem_mb ~micro_f1 =
  ( [
      metric "setup_s" "s" reported.setup_s;
      metric "throughput_per_s" "1/s" reported.throughput;
      metric "latency_p50_ms" "ms" reported.p50_ms;
      metric "latency_tail_ms" "ms" reported.tail_ms;
      metric "peak_mem_mb" "MB" peak_mem_mb;
      metric "micro_f1" "ratio" micro_f1;
    ],
    [
      ("host calibration", calibration);
      ( "unscaled",
        Printf.sprintf "setup_s %s, throughput_per_s %s, latency_p50_ms %s, latency_tail_ms %s"
          (Report.number raw.setup_s) (Report.number raw.throughput) (Report.number raw.p50_ms)
          (Report.number raw.tail_ms) );
    ] )

(* The nearest-rank tail at or below [cap] that the sample supports; a run
   that cannot support any tail has measured too little and fails. *)
let tail_or_fail label samples ~cap =
  match Stats.tail samples ~cap with
  | Some (p, v) -> (p, v)
  | None ->
    failwith
      (Printf.sprintf "%s: %d samples cannot support a tail percentile" label
         (Array.length samples))

let percentile_note label samples ~cap =
  let p, _ = tail_or_fail label samples ~cap in
  ( label,
    Printf.sprintf "p50 and p%.1f (nearest rank, ten samples beyond) of %d"
      (100. *. p) (Array.length samples) )

(* Accuracy against generator ground truth: the paper's Cor/InCor/FN/FP
   counts, summed over every scored page before taking F. *)
module Accuracy = struct
  module M = Tabseg_eval.Metrics

  type t = { mutable counts : M.counts }

  let create () = { counts = M.zero }

  let add_counts t counts = t.counts <- M.add t.counts counts
  let add t ~truth segmentation = add_counts t (Tabseg_eval.Scorer.score ~truth segmentation)

  let micro_f1 t = M.f_measure t.counts
end

let render segmentation =
  Format.asprintf "%a" Tabseg.Segmentation.pp segmentation

(* The process's peak major-heap size so far, in MB: for the in-process
   workloads, the system under test and its inputs. The GC is paced by
   allocation, so a run repeats this figure exactly for the same inputs in
   the same order. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Seeded Fisher-Yates. *)
let shuffle ~seed items =
  let a = Array.of_list items in
  let rng = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Spans stay in memory during the run and are written here once, at the
   end, one JSON object per line. *)
let write_spans run spans =
  let path =
    Filename.concat run.work_dir
      (Printf.sprintf "spans-%s-%d.jsonl" run.workload run.seed)
  in
  let oc = open_out path in
  output_string oc (Trace.to_json_lines spans);
  close_out oc;
  path

(* Run the benchmark's own executable with [args] in a fresh process and
   return the line it prints. *)
let probe args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> line
  | _ -> failwith ("probe failed: " ^ String.concat " " args)

(* In-process set-up takes microseconds, and how fast a process builds
   its first structures depends on where its memory landed and on how busy
   the host is at that second: one process reads about twice another, and
   the slow readings come in runs of seconds. A run therefore measures
   set-up in many fresh processes spread over the run, each scaled by the
   kernel timed in that process, and reports the median: [Setups] collects
   those measurements. *)
module Setups = struct
  let raw = ref [] and scaled = ref []

  let add ~setup_s ~kernel_s =
    raw := setup_s :: !raw;
    scaled := (setup_s *. Calibration.factor kernel_s) :: !scaled

  let count () = List.length !raw
  let median samples = Stats.median (Array.of_list !samples)
end

(* Median set-up time over [samples] measurements, each timing [batch]
   back-to-back calls of [set_up] (which creates and disposes of one
   instance) from an empty minor heap and dividing: one call is shorter
   than the clock's resolution. *)
let setup_median ~samples ~batch set_up =
  Array.init samples (fun _ ->
      Gc.minor ();
      let started = now () in
      for _ = 1 to batch do
        set_up ()
      done;
      (now () -. started) /. float_of_int batch)
  |> Stats.median
