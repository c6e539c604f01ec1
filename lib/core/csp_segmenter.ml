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

(* The rows both modes share, built once per observation into the strict
   problem: its uniqueness rows, then the consecutiveness, position and
   monotonicity rows, every one of them a [≤] over coefficients 1, flat
   and exactly sized (see [Pb.problem]). Entry i's candidate records are
   variables [first.(i)], [first.(i) + 1], ... in the order of its
   [pages], and its uniqueness row is row i. *)
type shared = {
  first : int array;  (** n + 1 offsets; [first.(n)] is the variable count *)
  variables : (int * int) array;
  strict : Pb.problem;
}

let shared_rows config observation =
  let entries = observation.Observation.entries in
  let n = Array.length entries in
  let pages = Array.map (fun e -> Array.of_list e.Observation.pages) entries in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun i ps -> first.(i + 1) <- first.(i) + Array.length ps) pages;
  let variables = Array.make first.(n) (0, 0) in
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
  (* Each record's candidates in stream order: record j's are
     [candidate_entry] and [candidate_var] from [candidates.(j)] to
     [candidates.(j + 1) - 1]. The counts become each record's end, and
     filling from the last entry back steps it to the record's start. *)
  let num_details = max 0 observation.Observation.num_details in
  let candidates = Array.make (num_details + 1) 0 in
  Array.iter
    (Array.iter (fun j ->
         if j >= 0 && j < num_details then
           candidates.(j) <- candidates.(j) + 1))
    pages;
  for j = 1 to num_details do
    candidates.(j) <- candidates.(j) + candidates.(j - 1)
  done;
  let num_candidates = candidates.(num_details) in
  let candidate_entry = Array.make num_candidates 0 in
  let candidate_var = Array.make num_candidates 0 in
  for i = n - 1 downto 0 do
    Array.iteri
      (fun a j ->
        if j >= 0 && j < num_details then begin
          let c = candidates.(j) - 1 in
          candidates.(j) <- c;
          candidate_entry.(c) <- i;
          candidate_var.(c) <- first.(i) + a
        end)
      pages.(i)
  done;
  (* Consecutiveness: candidates of record j separated by an entry that
     cannot belong to j may not both be assigned to j. Each record's
     candidates, in stream order, split into blocks of stream-consecutive
     entries; from the last block back, every candidate is paired with
     those of each earlier block, nearest first. [block_start] holds one
     record's block starts and its end. *)
  let block_start = Array.make (num_candidates + 1) 0 in
  let consecutive_pairs f =
    for j = 0 to num_details - 1 do
      let lo = candidates.(j) and hi = candidates.(j + 1) in
      let blocks = ref 0 in
      for c = lo to hi - 1 do
        if c = lo || candidate_entry.(c) <> candidate_entry.(c - 1) + 1
        then begin
          block_start.(!blocks) <- c;
          incr blocks
        end
      done;
      block_start.(!blocks) <- hi;
      for x = !blocks - 1 downto 0 do
        for a = block_start.(x) to block_start.(x + 1) - 1 do
          for y = x - 1 downto 0 do
            for b = block_start.(y) to block_start.(y + 1) - 1 do
              f candidate_var.(a) candidate_var.(b)
            done
          done
        done
      done
    done
  in
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
  let position_rows f =
    Hashtbl.iter
      (fun (page, positions) members ->
        let slots = List.length positions in
        match members with
        | [] | [ _ ] -> ()
        | members when List.length members > slots -> f page slots members
        | _ -> ())
      groups
  in
  (* Monotonicity: an earlier extract may not sit in a later record than a
     later extract. [pages] are ascending, so the later extract's records
     below j are a prefix of its candidates. *)
  let monotone_pairs f =
    if config.monotone then
      for i = 0 to n - 1 do
        let earlier = pages.(i) in
        for k = i + 1 to n - 1 do
          let later = pages.(k) in
          for a = 0 to Array.length earlier - 1 do
            let b = ref 0 in
            while !b < Array.length later && later.(!b) < earlier.(a) do
              f (first.(i) + a) (first.(k) + !b);
              incr b
            done
          done
        done
      done
  in
  (* Walk the rows once to size the arrays, then again to fill them. *)
  let pairs = ref 0 and position_count = ref 0 and position_terms = ref 0 in
  let count_pair _ _ = incr pairs in
  consecutive_pairs count_pair;
  position_rows (fun _ _ members ->
      incr position_count;
      position_terms := !position_terms + List.length members);
  monotone_pairs count_pair;
  let num_vars = first.(n) in
  let num_rows = n + !pairs + !position_count in
  let num_terms = num_vars + (2 * !pairs) + !position_terms in
  let row_start = Array.make (num_rows + 1) 0 in
  let vars = Array.make num_terms 0 in
  let relations = Array.make num_rows Pb.Le in
  let bounds = Array.make num_rows 1 in
  (* Uniqueness: every extract belongs to exactly one record. *)
  for i = 0 to n - 1 do
    for v = first.(i) to first.(i + 1) - 1 do
      vars.(v) <- v
    done;
    relations.(i) <- Pb.Eq;
    row_start.(i + 1) <- first.(i + 1)
  done;
  let row = ref n and term = ref num_vars in
  let add_term v =
    vars.(!term) <- v;
    incr term
  in
  let end_row bound =
    bounds.(!row) <- bound;
    incr row;
    row_start.(!row) <- !term
  in
  let at_most_pair v1 v2 =
    add_term v1;
    add_term v2;
    end_row 1
  in
  consecutive_pairs at_most_pair;
  position_rows (fun page slots members ->
      List.iter (fun i -> add_term (var i page)) members;
      end_row slots);
  monotone_pairs at_most_pair;
  {
    first;
    variables;
    strict =
      Pb.of_arrays ~num_vars ~row_start ~vars
        ~coeffs:(Array.make num_terms 1) ~relations ~bounds
        ~weights:(Array.make num_rows 0);
  }

(* The relaxed Coverage problem: each entry's at-most-one, followed by a
   weight-1 soft exactly-one over the same variables, ahead of the strict
   problem's other rows. *)
let coverage_problem shared =
  let strict = shared.strict in
  let first = shared.first in
  let n = Array.length first - 1 in
  let num_vars = first.(n) in
  let other_rows = Pb.num_rows strict - n in
  let other_terms = Array.length strict.Pb.vars - num_vars in
  let num_rows = (2 * n) + other_rows in
  let num_terms = (2 * num_vars) + other_terms in
  let row_start = Array.make (num_rows + 1) 0 in
  let vars = Array.make num_terms 0 in
  let relations = Array.make num_rows Pb.Le in
  let bounds = Array.make num_rows 1 in
  let weights = Array.make num_rows 0 in
  let term = ref 0 in
  for i = 0 to n - 1 do
    for row = 2 * i to (2 * i) + 1 do
      for v = first.(i) to first.(i + 1) - 1 do
        vars.(!term) <- v;
        incr term
      done;
      row_start.(row + 1) <- !term
    done;
    relations.((2 * i) + 1) <- Pb.Eq;
    weights.((2 * i) + 1) <- 1
  done;
  Array.blit strict.Pb.vars num_vars vars (2 * num_vars) other_terms;
  Array.blit strict.Pb.bounds n bounds (2 * n) other_rows;
  for k = 1 to other_rows do
    row_start.((2 * n) + k) <- num_vars + strict.Pb.row_start.(n + k)
  done;
  Pb.of_arrays ~num_vars ~row_start ~vars ~coeffs:(Array.make num_terms 1)
    ~relations ~bounds ~weights

(* Only the uniqueness rows differ between the modes. *)
let encode_shared config mode shared =
  let strict = shared.strict in
  let problem =
    match (mode, config.relaxed_objective) with
    | Strict, _ -> strict
    | Relaxed, Paper ->
      (* Each uniqueness equality becomes an at-most-one, and every other
         row is a [≤] already: the strict problem under [≤] throughout,
         sharing its other arrays. *)
      Pb.of_arrays ~num_vars:strict.Pb.num_vars
        ~row_start:strict.Pb.row_start ~vars:strict.Pb.vars
        ~coeffs:strict.Pb.coeffs
        ~relations:(Array.make (Pb.num_rows strict) Pb.Le)
        ~bounds:strict.Pb.bounds ~weights:strict.Pb.weights
    | Relaxed, Coverage -> coverage_problem shared
  in
  { problem; variables = shared.variables }

let encode ?(config = default_config) mode observation =
  encode_shared config mode (shared_rows config observation)

(* Decode a solver assignment into per-entry record choices: entry i's
   earliest assigned record, or -1 (records are page indices, from 0). *)
let decode observation (encoded : encoded) assignment =
  let choices =
    Array.make (Array.length observation.Observation.entries) (-1)
  in
  Array.iteri
    (fun v (i, j) ->
      if assignment.(v) && (choices.(i) < 0 || j < choices.(i)) then
        choices.(i) <- j)
    encoded.variables;
  choices

let assemble_from_choices observation notes choices extras =
  let assigned = ref [] and unassigned = ref [] in
  Array.iteri
    (fun i entry ->
      let j = choices.(i) in
      if j >= 0 then
        assigned := (entry.Observation.extract, j, None) :: !assigned
      else unassigned := entry.Observation.extract :: !unassigned)
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
        (decode observation relaxed result.Wsat_oip.assignment)
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
          (decode observation strict result.Wsat_oip.assignment)
          extras
      else
        match
          Exact.solve ~node_limit:config.exact_node_limit strict.problem
        with
        | Exact.Sat assignment ->
          (* The local search was unlucky; the complete solver found a
             model. *)
          assemble_from_choices observation notes
            (decode observation strict assignment)
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
