(* The repository benchmark: one workload per run, chosen on the command
   line with its seed, measuring time and tracing switch. Human-readable
   lines go first; the last line of standard output is the JSON result
   object. The exit code is 0 only when every output check passed. *)

open Common

let workloads =
  [
    ("paper-prob", Paper_prob.run);
    ("serve-warm", Serve_warm.run);
    ("stream-csp", Stream_csp.run);
  ]

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH \
   --work-dir DIR"

let read_first_line command =
  match Unix.open_process_in command with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    (match Unix.close_process_in ic with _ -> ());
    line

let environment run =
  [
    ("workload", run.workload);
    ("seed", string_of_int run.seed);
    ("seconds", Report.number run.seconds);
    ("trace", string_of_bool run.trace);
    ("nproc", Option.value (read_first_line "nproc 2>/dev/null") ~default:"unknown");
    ("ocaml", Sys.ocaml_version);
    ("OCAMLRUNPARAM", Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"");
  ]

let print_pairs label pairs =
  Printf.printf "%s {%s}\n" label
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (Report.json_string k) (Report.json_string v))
          pairs))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and cli = ref "" and work_dir = ref "" in
  let setup_probe = ref "" and page_probe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--cli", Arg.Set_string cli, "PATH the built tabseg executable");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory");
      (* probes: measurements made in a fresh process of this executable,
         each printing one line for the run that started it *)
      ("--setup-probe", Arg.Set_string setup_probe, "stream-csp print one set-up measurement");
      ("--page-probe", Arg.Set_string page_probe, "NAME print one cold paper-prob page measurement");
    ]
    (fun extra -> raise (Arg.Bad ("unexpected argument " ^ extra)))
    usage;
  let fail why =
    prerr_endline ("perfbench: " ^ why);
    exit 2
  in
  if !setup_probe <> "" then begin
    if !setup_probe <> "stream-csp" then fail ("no set-up probe for " ^ !setup_probe);
    print_endline (Stream_csp.setup_probe ());
    exit 0
  end;
  if !page_probe <> "" then begin
    print_endline (Paper_prob.page_probe !page_probe);
    exit 0
  end;
  let body =
    match List.assoc_opt !workload workloads with
    | Some body -> body
    | None ->
      fail
        (Printf.sprintf "unknown workload %S (known: %s)" !workload
           (String.concat ", " (List.map fst workloads)))
  in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if !seconds <= 0. then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !work_dir = "" then fail "--work-dir is required";
  let run =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      cli = !cli;
      work_dir = !work_dir;
    }
  in
  print_pairs "env" (environment run);
  let cpu_before = cpu_seconds () in
  let outcome = body run in
  let loadgen_cpu_s = cpu_seconds () -. cpu_before in
  print_pairs "notes"
    (outcome.notes @ [ ("loadgen.cpu_s", Report.number loadgen_cpu_s) ]);
  List.iter
    (fun (name, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok  " else "FAIL") name)
    outcome.checks;
  List.iter
    (fun m -> Printf.printf "metric %s = %s %s\n" m.Report.name (Report.number m.Report.value) m.Report.unit_)
    outcome.metrics;
  let correct = List.for_all snd outcome.checks && outcome.failed = 0 in
  print_endline
    (Report.result_line ~correct ~attempted:outcome.attempted ~failed:outcome.failed
       outcome.metrics);
  exit (if correct then 0 else 1)
