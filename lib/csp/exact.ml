type outcome =
  | Sat of bool array
  | Unsat
  | Unknown

exception Budget_exhausted
exception Found of bool array

type search = {
  problem : Pb.problem;
  occurrences : Pb.var_rows;
  assignment : bool array;
  lhs : int array;  (* contribution of assigned variables *)
  pos_rest : int array;  (* positive coefficients still unassigned *)
  neg_rest : int array;  (* negative coefficients still unassigned *)
  mutable nodes : int;
  node_limit : int;
}

(* Soft rows are indexed like the others and skipped wherever a row is
   read. *)
let make_search (problem : Pb.problem) node_limit =
  let num_rows = Pb.num_rows problem in
  let pos_rest = Array.make num_rows 0 in
  let neg_rest = Array.make num_rows 0 in
  for r = 0 to num_rows - 1 do
    for t = problem.Pb.row_start.(r) to problem.Pb.row_start.(r + 1) - 1 do
      let coeff = problem.Pb.coeffs.(t) in
      if coeff > 0 then pos_rest.(r) <- pos_rest.(r) + coeff
      else neg_rest.(r) <- neg_rest.(r) + coeff
    done
  done;
  {
    problem;
    occurrences = Pb.var_rows problem;
    assignment = Array.make problem.Pb.num_vars false;
    lhs = Array.make num_rows 0;
    pos_rest;
    neg_rest;
    nodes = 0;
    node_limit;
  }

let hard search r = search.problem.Pb.weights.(r) = 0

let row_feasible search r =
  let bound = search.problem.Pb.bounds.(r) in
  let lo = search.lhs.(r) + search.neg_rest.(r) in
  let hi = search.lhs.(r) + search.pos_rest.(r) in
  match search.problem.Pb.relations.(r) with
  | Pb.Le -> lo <= bound
  | Pb.Ge -> hi >= bound
  | Pb.Eq -> lo <= bound && hi >= bound

(* Assign [v := value]; return false (after undoing nothing — caller undoes)
   if some touched row becomes infeasible. *)
let assign search v value =
  search.assignment.(v) <- value;
  let ok = ref true in
  let occurrences = search.occurrences in
  for k = occurrences.Pb.start.(v) to occurrences.Pb.start.(v + 1) - 1 do
    let r = occurrences.Pb.rows.(k) and coeff = occurrences.Pb.coeffs.(k) in
    if hard search r then begin
      if value then search.lhs.(r) <- search.lhs.(r) + coeff;
      if coeff > 0 then search.pos_rest.(r) <- search.pos_rest.(r) - coeff
      else search.neg_rest.(r) <- search.neg_rest.(r) - coeff;
      if not (row_feasible search r) then ok := false
    end
  done;
  !ok

let unassign search v value =
  let occurrences = search.occurrences in
  for k = occurrences.Pb.start.(v) to occurrences.Pb.start.(v + 1) - 1 do
    let r = occurrences.Pb.rows.(k) and coeff = occurrences.Pb.coeffs.(k) in
    if hard search r then begin
      if value then search.lhs.(r) <- search.lhs.(r) - coeff;
      if coeff > 0 then search.pos_rest.(r) <- search.pos_rest.(r) + coeff
      else search.neg_rest.(r) <- search.neg_rest.(r) + coeff
    end
  done;
  search.assignment.(v) <- false

let search_all (problem : Pb.problem) node_limit on_solution =
  let search = make_search problem node_limit in
  let num_vars = problem.Pb.num_vars in
  let initially_feasible =
    let ok = ref true in
    for r = 0 to Pb.num_rows problem - 1 do
      if hard search r && not (row_feasible search r) then ok := false
    done;
    !ok
  in
  (* Variables in order, each false first. *)
  let rec explore v =
    search.nodes <- search.nodes + 1;
    if search.nodes > search.node_limit then raise Budget_exhausted;
    if v >= num_vars then on_solution (Array.copy search.assignment)
    else begin
      branch v false;
      branch v true
    end
  and branch v value =
    if assign search v value then explore (v + 1);
    unassign search v value
  in
  if initially_feasible then explore 0

let solve ?(node_limit = 2_000_000) problem =
  match search_all problem node_limit (fun a -> raise (Found a)) with
  | () -> Unsat
  | exception Found a -> Sat a
  | exception Budget_exhausted -> Unknown

exception Capped

let count_solutions ?(node_limit = 2_000_000) ?(cap = 1000) problem =
  let count = ref 0 in
  (try
     search_all problem node_limit (fun _ ->
         incr count;
         if !count >= cap then raise Capped)
   with Budget_exhausted | Capped -> ());
  !count
