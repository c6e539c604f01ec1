type outcome =
  | Fixed of (int * bool) list
  | Conflict of string

type state = {
  problem : Pb.problem;
  value : int array;  (* -1 unknown, 0 false, 1 true *)
  mutable trail : (int * bool) list;  (* forced literals, latest first *)
}

exception Row_conflict of int  (* a hard row the fixed variables break *)
exception Forced_both_ways of int

let assign state v value =
  match state.value.(v) with
  | -1 ->
    state.value.(v) <- (if value then 1 else 0);
    state.trail <- (v, value) :: state.trail;
    true
  | current when (current = 1) = value -> false
  | _ -> raise (Forced_both_ways v)

(* Propagate row [r]; true if any variable was newly fixed. *)
let propagate state r =
  let problem = state.problem in
  let lo_term = problem.Pb.row_start.(r)
  and hi_term = problem.Pb.row_start.(r + 1) in
  (* The fixed contribution and the positive/negative potential of the
     unknowns. *)
  let fixed = ref 0 and positive = ref 0 and negative = ref 0 in
  for t = lo_term to hi_term - 1 do
    let coeff = problem.Pb.coeffs.(t) in
    match state.value.(problem.Pb.vars.(t)) with
    | 1 -> fixed := !fixed + coeff
    | 0 -> ()
    | _ ->
      if coeff > 0 then positive := !positive + coeff
      else negative := !negative + coeff
  done;
  let lo = !fixed + !negative and hi = !fixed + !positive in
  let bound = problem.Pb.bounds.(r) in
  let relation = problem.Pb.relations.(r) in
  (match relation with
  | Pb.Le -> if lo > bound then raise (Row_conflict r)
  | Pb.Ge -> if hi < bound then raise (Row_conflict r)
  | Pb.Eq -> if lo > bound || hi < bound then raise (Row_conflict r));
  let changed = ref false in
  (* The unknowns, last term first. A row mentions a variable once, so
     forcing one leaves the others as they were. *)
  for t = hi_term - 1 downto lo_term do
    let v = problem.Pb.vars.(t) in
    if state.value.(v) = -1 then begin
      let coeff = problem.Pb.coeffs.(t) in
      (* A positive unknown whose addition would break the bound must be
         0; a negative unknown whose absence would break it must be 1. *)
      let forced =
        match relation with
        | Pb.Le ->
          if coeff > 0 && lo + coeff > bound then assign state v false
          else if coeff < 0 && lo - coeff > bound then assign state v true
          else false
        | Pb.Ge ->
          if coeff > 0 && hi - coeff < bound then assign state v true
          else if coeff < 0 && hi + coeff < bound then assign state v false
          else false
        | Pb.Eq ->
          if coeff > 0 then
            if lo + coeff > bound then assign state v false
            else if hi - coeff < bound then assign state v true
            else false
          else if lo - coeff > bound then assign state v true
          else if hi + coeff < bound then assign state v false
          else false
      in
      if forced then changed := true
    end
  done;
  !changed

(* Propagate the hard rows to fixpoint. *)
let propagate_all problem =
  let state =
    { problem; value = Array.make (max 1 problem.Pb.num_vars) (-1); trail = [] }
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for r = 0 to Pb.num_rows problem - 1 do
      if problem.Pb.weights.(r) = 0 && propagate state r then changed := true
    done
  done;
  state

let run problem =
  match propagate_all problem with
  | state -> Fixed (List.rev state.trail)
  | exception Row_conflict r ->
    Conflict (Format.asprintf "%a" (Pb.pp_row problem) r)
  | exception Forced_both_ways v ->
    Conflict (Printf.sprintf "variable x%d forced both ways" (v + 1))

let is_unsat problem =
  match propagate_all problem with
  | _ -> false
  | exception (Row_conflict _ | Forced_both_ways _) -> true
