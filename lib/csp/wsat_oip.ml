type params = {
  max_flips : int;
  max_tries : int;
  noise : float;
  tabu : int;
  hard_weight : int;
  init_density : float;
  seed : int;
}

let default_params =
  { max_flips = 20_000; max_tries = 4; noise = 0.1; tabu = 3;
    hard_weight = 1000; init_density = 0.5; seed = 42 }

type result = {
  assignment : bool array;
  feasible : bool;
  hard_violations : int;
  soft_cost : int;
  flips_used : int;
  tries_used : int;
}

(* The walk over one problem, allocated once per solve and reset in place
   for each try. *)
type state = {
  problem : Pb.problem;
  occurrences : Pb.var_rows;
  hard_weight : int;
  assignment : bool array;
  lhs : int array;  (* current Σ coeff·x per row *)
  (* Violated-row set with O(1) add/remove: *)
  violated : int array;  (* dense array of violated row indices *)
  mutable violated_count : int;
  mutable violated_hard : int;  (* how many of them are hard *)
  violated_position : int array;  (* row -> index in [violated], or -1 *)
  mutable score : int;  (* total weighted violation, hard and soft *)
  mutable hard_violation_units : int;  (* Σ violation over hard rows *)
  last_flip : int array;  (* var -> flip number of last flip *)
}

let create problem hard_weight =
  let num_rows = Pb.num_rows problem in
  let num_vars = problem.Pb.num_vars in
  {
    problem;
    occurrences = Pb.var_rows problem;
    hard_weight;
    assignment = Array.make num_vars false;
    lhs = Array.make num_rows 0;
    violated = Array.make (max 1 num_rows) 0;
    violated_count = 0;
    violated_hard = 0;
    violated_position = Array.make (max 1 num_rows) (-1);
    score = 0;
    hard_violation_units = 0;
    last_flip = Array.make (max 1 num_vars) min_int;
  }

(* By how much row [r] is violated when its left-hand side is [lhs]. *)
let row_violation (problem : Pb.problem) r lhs =
  let bound = problem.Pb.bounds.(r) in
  match problem.Pb.relations.(r) with
  | Pb.Le -> if lhs > bound then lhs - bound else 0
  | Pb.Ge -> if bound > lhs then bound - lhs else 0
  | Pb.Eq -> abs (lhs - bound)

(* A hard row weighs [hard_weight] per unit of violation. *)
let row_weight state r =
  let weight = state.problem.Pb.weights.(r) in
  if weight = 0 then state.hard_weight else weight

let add_violated state r =
  state.violated.(state.violated_count) <- r;
  state.violated_position.(r) <- state.violated_count;
  state.violated_count <- state.violated_count + 1;
  if state.problem.Pb.weights.(r) = 0 then
    state.violated_hard <- state.violated_hard + 1

(* A fresh random start: every variable drawn in order, then every row's
   left-hand side and violation in row order. *)
let reset state params rng =
  let problem = state.problem in
  for v = 0 to problem.Pb.num_vars - 1 do
    state.assignment.(v) <- Random.State.float rng 1.0 < params.init_density
  done;
  Array.fill state.violated_position 0
    (Array.length state.violated_position)
    (-1);
  Array.fill state.last_flip 0 (Array.length state.last_flip) min_int;
  state.violated_count <- 0;
  state.violated_hard <- 0;
  state.score <- 0;
  state.hard_violation_units <- 0;
  for r = 0 to Pb.num_rows problem - 1 do
    let lhs = ref 0 in
    for t = problem.Pb.row_start.(r) to problem.Pb.row_start.(r + 1) - 1 do
      if state.assignment.(problem.Pb.vars.(t)) then
        lhs := !lhs + problem.Pb.coeffs.(t)
    done;
    state.lhs.(r) <- !lhs;
    let violation = row_violation problem r !lhs in
    if violation > 0 then begin
      add_violated state r;
      state.score <- state.score + (row_weight state r * violation);
      if problem.Pb.weights.(r) = 0 then
        state.hard_violation_units <- state.hard_violation_units + violation
    end
  done

(* Apply the lhs delta of one row after a flip, keeping the violated set,
   score and hard-violation counter in sync. *)
let update_row state r delta =
  let problem = state.problem in
  let old_violation = row_violation problem r state.lhs.(r) in
  state.lhs.(r) <- state.lhs.(r) + delta;
  let new_violation = row_violation problem r state.lhs.(r) in
  if old_violation <> new_violation then begin
    let hard = problem.Pb.weights.(r) = 0 in
    state.score <-
      state.score + (row_weight state r * (new_violation - old_violation));
    if hard then
      state.hard_violation_units <-
        state.hard_violation_units + new_violation - old_violation;
    if old_violation = 0 then add_violated state r
    else if new_violation = 0 then begin
      let position = state.violated_position.(r) in
      let last = state.violated_count - 1 in
      let moved = state.violated.(last) in
      state.violated.(position) <- moved;
      state.violated_position.(moved) <- position;
      state.violated_position.(r) <- -1;
      state.violated_count <- last;
      if hard then state.violated_hard <- state.violated_hard - 1
    end
  end

(* Flip [v], updating its rows in descending row order. *)
let flip state v =
  let now = state.assignment.(v) in
  state.assignment.(v) <- not now;
  let occurrences = state.occurrences in
  for k = occurrences.Pb.start.(v) to occurrences.Pb.start.(v + 1) - 1 do
    let coeff = occurrences.Pb.coeffs.(k) in
    update_row state occurrences.Pb.rows.(k) (if now then -coeff else coeff)
  done

(* Score change if [v] were flipped (without committing). *)
let flip_delta state v =
  let now = state.assignment.(v) in
  let problem = state.problem and occurrences = state.occurrences in
  let acc = ref 0 in
  for k = occurrences.Pb.start.(v) to occurrences.Pb.start.(v + 1) - 1 do
    let r = occurrences.Pb.rows.(k) in
    let coeff = occurrences.Pb.coeffs.(k) in
    let lhs = state.lhs.(r) in
    let old_violation = row_violation problem r lhs in
    let new_violation =
      row_violation problem r (if now then lhs - coeff else lhs + coeff)
    in
    acc := !acc + (row_weight state r * (new_violation - old_violation))
  done;
  !acc

(* The [k]-th hard row of [violated.(0 .. i)], counted from [i] back. *)
let rec nth_hard_back (problem : Pb.problem) violated i k =
  let r = violated.(i) in
  if problem.Pb.weights.(r) <> 0 then nth_hard_back problem violated (i - 1) k
  else if k = 0 then r
  else nth_hard_back problem violated (i - 1) (k - 1)

(* Pick a violated row, preferring hard ones, or -1 when none is. The draw
   counts the preferred rows from the last one in the set back: the order
   of the list that the set used to be consed into. *)
let pick_violated state rng =
  let count = state.violated_count in
  if count = 0 then -1
  else if state.violated_hard = 0 then
    state.violated.(count - 1 - Random.State.int rng count)
  else
    nth_hard_back state.problem state.violated (count - 1)
      (Random.State.int rng state.violated_hard)

(* The variable of [row] to flip, or -1 if the row has no terms: a random
   one with probability [noise], otherwise the best allowed flip, the
   earlier term on a tie. *)
let choose_variable state params rng flip_number best_score row =
  let problem = state.problem in
  let lo = problem.Pb.row_start.(row) and hi = problem.Pb.row_start.(row + 1) in
  if hi = lo then -1
  else if Random.State.float rng 1.0 < params.noise then
    problem.Pb.vars.(lo + Random.State.int rng (hi - lo))
  else begin
    let best = ref (-1) and best_delta = ref 0 in
    for t = lo to hi - 1 do
      let v = problem.Pb.vars.(t) in
      let delta = flip_delta state v in
      let tabu =
        params.tabu > 0 && flip_number - state.last_flip.(v) <= params.tabu
      in
      (* Aspiration: a tabu move is allowed if it beats the best score
         seen so far. *)
      let allowed = (not tabu) || state.score + delta < best_score in
      if allowed && (!best < 0 || delta < !best_delta) then begin
        best := v;
        best_delta := delta
      end
    done;
    if !best >= 0 then !best
    else problem.Pb.vars.(lo + Random.State.int rng (hi - lo))
  end

let solve ?(params = default_params) (problem : Pb.problem) =
  let rng = Random.State.make [| params.seed |] in
  let num_vars = problem.Pb.num_vars in
  let state = create problem params.hard_weight in
  let best_assignment = Array.make num_vars false in
  let best_feasible = ref false in
  let best_score = ref max_int in
  let best_hard = ref max_int in
  let total_flips = ref 0 in
  let tries_used = ref 0 in
  let record () =
    let feasible = state.hard_violation_units = 0 in
    let better =
      if feasible && not !best_feasible then true
      else if feasible = !best_feasible then
        state.score < !best_score
        || (state.score = !best_score
            && state.hard_violation_units < !best_hard)
      else false
    in
    if better then begin
      Array.blit state.assignment 0 best_assignment 0 num_vars;
      best_feasible := feasible;
      best_score := state.score;
      best_hard := state.hard_violation_units
    end
  in
  (try
     for _try = 1 to params.max_tries do
       incr tries_used;
       reset state params rng;
       record ();
       let flip_number = ref 0 in
       let continue = ref true in
       while !continue && !flip_number < params.max_flips do
         let row = pick_violated state rng in
         if row < 0 then begin
           (* Every constraint satisfied: global optimum. *)
           record ();
           raise Exit
         end;
         let v =
           choose_variable state params rng !flip_number !best_score row
         in
         if v < 0 then continue := false
         else begin
           flip state v;
           state.last_flip.(v) <- !flip_number;
           incr flip_number;
           incr total_flips;
           record ()
         end
       done
     done
   with Exit -> ());
  (* A try's first point always improves on no point at all, so only a
     solve without tries returns the placeholder it starts from. *)
  let assignment =
    if !tries_used = 0 then Array.make (max 1 num_vars) false
    else best_assignment
  in
  let hard_violations = Pb.hard_violations problem assignment in
  {
    assignment;
    feasible = hard_violations = 0;
    hard_violations;
    soft_cost = Pb.soft_cost problem assignment;
    flips_used = !total_flips;
    tries_used = !tries_used;
  }
