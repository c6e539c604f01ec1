open Tabseg_extract
open Tabseg_csp

type mode = Strict | Relaxed

type relaxed_objective = Paper | Coverage

type config = {
  monotone : bool;
  relaxed_objective : relaxed_objective;
  wsat : Wsat_oip.params;
  exact_node_limit : int;
}

let default_config =
  { monotone = true; relaxed_objective = Paper;
    wsat = Wsat_oip.default_params; exact_node_limit = 500_000 }

let coverage_config = { default_config with relaxed_objective = Coverage }

type encoded = {
  problem : Pb.problem;
  variables : (int * int) array;
}

(* The rows both modes share, built once per observation. Entry i's
   candidate records are variables [first.(i)], [first.(i) + 1], ... in
   the order of its [pages]. *)
type shared = {
  first : int array;  (** n + 1 offsets; [first.(n)] is the variable count *)
  variables : (int * int) array;
  rows : Pb.constraint_ list;
      (** consecutiveness, position and monotonicity rows, in that order *)
}

let shared_rows config observation =
  let entries = observation.Observation.entries in
  let n = Array.length entries in
  let pages = Array.map (fun e -> Array.of_list e.Observation.pages) entries in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun i ps -> first.(i + 1) <- first.(i) + Array.length ps) pages;
  let variables = Array.make first.(n) (0, 0) in
  (* One (v, 1) term per variable, shared by the pair rows: most rows are
     pairs, and fewer words per row is less for the minor GC to promote
     once the problem's row array (in the major heap) holds them. *)
  let term = Array.init first.(n) (fun v -> (v, 1)) in
  let at_most_pair v1 v2 =
    Pb.Hard { Pb.terms = [| term.(v1); term.(v2) |]; relation = Pb.Le; bound = 1 }
  in
  Array.iteri
    (fun i ps -> Array.iteri (fun a j -> variables.(first.(i) + a) <- (i, j)) ps)
    pages;
  let var i j =
    let rec find a =
      if a = Array.length pages.(i) then raise Not_found
      else if pages.(i).(a) = j then first.(i) + a
      else find (a + 1)
    in
    find 0
  in
  let constraints = ref [] in
  let add c = constraints := c :: !constraints in
  (* Consecutiveness: candidates of record j separated by an entry that
     cannot belong to j may not both be assigned to j. Each record's
     candidates, in stream order, split into blocks of stream-consecutive
     entries; from the last block back, every candidate is paired with
     those of each earlier block, nearest first. *)
  let num_details = observation.Observation.num_details in
  let candidates = Array.make (max 0 num_details) [] in
  for i = n - 1 downto 0 do
    Array.iteri
      (fun a j ->
        if j >= 0 && j < num_details then
          candidates.(j) <- (i, first.(i) + a) :: candidates.(j))
      pages.(i)
  done;
  Array.iter
    (fun record_candidates ->
      let c = Array.of_list record_candidates in
      let m = Array.length c in
      (* block x is c.(bounds.(x)) .. c.(bounds.(x + 1) - 1) *)
      let starts = ref [ m ] in
      for a = m - 1 downto 1 do
        if fst c.(a) <> fst c.(a - 1) + 1 then starts := a :: !starts
      done;
      let bounds = Array.of_list (0 :: !starts) in
      for x = Array.length bounds - 2 downto 0 do
        for a = bounds.(x) to bounds.(x + 1) - 1 do
          for y = x - 1 downto 0 do
            for b = bounds.(y) to bounds.(y + 1) - 1 do
              add (at_most_pair (snd c.(a)) (snd c.(b)))
            done
          done
        done
      done)
    candidates;
  (* Position: extracts observed at the same positions on a detail page
     compete for that record — the page offers only as many slots as it
     has occurrences. Extracts are grouped by their full occurrence-
     position list on the page (a value printed twice on the detail page,
     such as the repeated day in "12/12/1990", offers two slots), and at
     most |positions| of a group may take the record. Combined with the
     strict uniqueness equalities this yields the pigeonhole
     unsatisfiabilities of the paper's Section 6.3 failure reports. *)
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun i entry ->
      let per_page = Hashtbl.create 4 in
      List.iter
        (fun (page, position) ->
          Hashtbl.replace per_page page
            (position
            :: Option.value ~default:[] (Hashtbl.find_opt per_page page)))
        entry.Observation.positions;
      Hashtbl.iter
        (fun page positions ->
          let key = (page, List.sort compare positions) in
          Hashtbl.replace groups key
            (i :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
        per_page)
    entries;
  Hashtbl.iter
    (fun (page, positions) members ->
      let slots = List.length positions in
      match members with
      | [] | [ _ ] -> ()
      | members when List.length members > slots ->
        let terms = List.map (fun i -> (var i page, 1)) members in
        add (Pb.Hard (Pb.linear terms Pb.Le slots))
      | _ -> ())
    groups;
  (* Monotonicity: an earlier extract may not sit in a later record than a
     later extract. [pages] are ascending, so the later extract's records
     below j are a prefix of its candidates. *)
  if config.monotone then
    for i = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        Array.iteri
          (fun a j ->
            let b = ref 0 in
            while !b < Array.length pages.(k) && pages.(k).(!b) < j do
              add (at_most_pair (first.(i) + a) (first.(k) + !b));
              incr b
            done)
          pages.(i)
      done
    done;
  { first; variables; rows = List.rev !constraints }

(* The leading uniqueness rows — the only ones the modes differ in —
   ahead of the shared rows. *)
let encode_shared config mode shared =
  let n = Array.length shared.first - 1 in
  (* Uniqueness: every extract belongs to exactly (at most) one record. *)
  let uniqueness = ref [] in
  let add c = uniqueness := c :: !uniqueness in
  for i = 0 to n - 1 do
    let vars =
      List.init (shared.first.(i + 1) - shared.first.(i)) (fun a ->
          shared.first.(i) + a)
    in
    match mode with
    | Strict -> add (Pb.Hard (Pb.exactly_one vars))
    | Relaxed -> (
      add (Pb.Hard (Pb.at_most_one vars));
      match config.relaxed_objective with
      | Paper -> ()
      | Coverage -> add (Pb.Soft (Pb.exactly_one vars, 1)))
  done;
  {
    problem =
      Pb.make ~num_vars:shared.first.(n)
        (List.rev_append !uniqueness shared.rows);
    variables = shared.variables;
  }

let encode ?(config = default_config) mode observation =
  encode_shared config mode (shared_rows config observation)

(* Decode a solver assignment into per-entry record choices. *)
let decode (encoded : encoded) assignment =
  let choices = Hashtbl.create 64 in
  Array.iteri
    (fun v (i, j) ->
      if assignment.(v) then
        match Hashtbl.find_opt choices i with
        | Some existing when existing <= j -> ()
        | _ -> Hashtbl.replace choices i j)
    encoded.variables;
  choices

let assemble_from_choices observation notes choices extras =
  let assigned = ref [] and unassigned = ref [] in
  Array.iteri
    (fun i entry ->
      match Hashtbl.find_opt choices i with
      | Some j ->
        assigned := (entry.Observation.extract, j, None) :: !assigned
      | None -> unassigned := entry.Observation.extract :: !unassigned)
    observation.Observation.entries;
  Segmentation.assemble ~notes ~assigned:(List.rev !assigned)
    ~unassigned:(List.rev !unassigned) ~extras

let segment_observation config observation notes extras =
  if Array.length observation.Observation.entries = 0 then
    Segmentation.assemble ~notes ~assigned:[] ~unassigned:[] ~extras
  else begin
    let shared = shared_rows config observation in
    let strict = encode_shared config Strict shared in
    let relax_and_solve () =
      let notes =
        notes @ [ Segmentation.No_solution; Segmentation.Relaxed_constraints ]
      in
      let relaxed = encode_shared config Relaxed shared in
      let params =
        match config.relaxed_objective with
        | Coverage -> config.wsat
        | Paper ->
          (* Emulate the paper's observed behaviour: WSAT(OIP) "was able
             to find solutions for the relaxed constraint problem, but
             the solution corresponded to a partial assignment". With no
             objective the walk stops at the first feasible point near
             its sparse random start — consistent, but partial and
             arbitrary. *)
          { config.wsat with Wsat_oip.init_density = 0.10 }
      in
      let result = Wsat_oip.solve ~params relaxed.problem in
      assemble_from_choices observation notes
        (decode relaxed result.Wsat_oip.assignment)
        extras
    in
    (* Unit propagation first: the common inconsistency certificates (a
       planted value collision forcing two variables into an at-most-one
       constraint) surface here instantly, skipping a futile local
       search. *)
    if Presolve.is_unsat strict.problem then relax_and_solve ()
    else begin
      let result = Wsat_oip.solve ~params:config.wsat strict.problem in
      if result.Wsat_oip.feasible then
        assemble_from_choices observation notes
          (decode strict result.Wsat_oip.assignment)
          extras
      else
        match
          Exact.solve ~node_limit:config.exact_node_limit strict.problem
        with
        | Exact.Sat assignment ->
          (* The local search was unlucky; the complete solver found a
             model. *)
          assemble_from_choices observation notes (decode strict assignment)
            extras
        | Exact.Unsat | Exact.Unknown -> relax_and_solve ()
    end
  end

let segment ?(config = default_config) (prepared : Pipeline.prepared) =
  Instrument.time ~stage:"segment.csp" (fun () ->
      segment_observation config prepared.Pipeline.observation
        prepared.Pipeline.notes
        prepared.Pipeline.observation.Observation.extras)

let solve_observation ?(config = default_config) observation =
  segment_observation config observation []
    observation.Observation.extras
