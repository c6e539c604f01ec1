open Tabseg_csp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------ Pb ------------------------------ *)

let test_violation_le () =
  let c = Pb.linear [ (0, 1); (1, 1) ] Pb.Le 1 in
  check_int "0+0 <= 1 ok" 0 (Pb.violation c [| false; false |]);
  check_int "1+0 <= 1 ok" 0 (Pb.violation c [| true; false |]);
  check_int "1+1 <= 1 violated by 1" 1 (Pb.violation c [| true; true |])

let test_violation_ge () =
  let c = Pb.linear [ (0, 2); (1, 1) ] Pb.Ge 2 in
  check_int "0 >= 2 violated by 2" 2 (Pb.violation c [| false; false |]);
  check_int "2 >= 2 ok" 0 (Pb.violation c [| true; false |])

let test_violation_eq () =
  let c = Pb.exactly_one [ 0; 1; 2 ] in
  check_int "none violated by 1" 1 (Pb.violation c [| false; false; false |]);
  check_int "one ok" 0 (Pb.violation c [| true; false; false |]);
  check_int "three violated by 2" 2 (Pb.violation c [| true; true; true |])

let test_negative_coefficients () =
  let c = Pb.linear [ (0, 1); (1, -1) ] Pb.Le 0 in
  check_int "x0 - x1 <= 0, (1,0) violated" 1 (Pb.violation c [| true; false |]);
  check_int "(1,1) ok" 0 (Pb.violation c [| true; true |])

let test_make_validation () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Pb.make: variable 5 out of range") (fun () ->
      ignore (Pb.make ~num_vars:2 [ Pb.Hard (Pb.exactly_one [ 5 ]) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Pb.make: duplicate variable 0") (fun () ->
      ignore (Pb.make ~num_vars:2 [ Pb.Hard (Pb.exactly_one [ 0; 0 ]) ]));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Pb.make: non-positive soft weight") (fun () ->
      ignore (Pb.make ~num_vars:2 [ Pb.Soft (Pb.exactly_one [ 0 ], 0) ]))

(* Validation walks the rows in order and each row's terms in order: the
   first bad term of the first bad row is the one reported, and a variable
   may appear once in each of several rows. *)
let test_make_first_bad_row () =
  let raises name message rows =
    Alcotest.check_raises name (Invalid_argument message) (fun () ->
        ignore (Pb.make ~num_vars:4 rows))
  in
  let row vars =
    Pb.Hard (Pb.linear (List.map (fun v -> (v, 1)) vars) Pb.Le 1)
  in
  raises "duplicate before out of range" "Pb.make: duplicate variable 1"
    [ row [ 0; 1 ]; row [ 1; 2; 1 ]; row [ 9 ] ];
  raises "out of range before duplicate" "Pb.make: variable 9 out of range"
    [ row [ 0; 1 ]; row [ 2; 9 ]; row [ 3; 3 ] ];
  raises "first bad term in a row" "Pb.make: variable -1 out of range"
    [ row [ 0; -1; 0 ] ];
  raises "terms before weight" "Pb.make: duplicate variable 2"
    [ Pb.Soft (Pb.at_most_one [ 2; 2 ], 0) ];
  raises "weight before later rows" "Pb.make: non-positive soft weight"
    [ row [ 0 ]; Pb.Soft (Pb.at_most_one [ 1 ], -1); row [ 5 ] ];
  Alcotest.check_raises "no variables at all"
    (Invalid_argument "Pb.make: variable 0 out of range") (fun () ->
      ignore (Pb.make ~num_vars:0 [ row []; row [ 0 ] ]));
  let problem =
    Pb.make ~num_vars:4 [ row [ 0; 1 ]; row [ 1; 0 ]; row [ 0; 1; 2; 3 ] ]
  in
  check_int "a variable may appear in several rows" 3
    (Pb.num_rows problem)

let test_costs () =
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.at_most_one [ 0; 1 ]);
        Pb.Soft (Pb.exactly_one [ 0 ], 3) ]
  in
  check_int "hard violations" 0 (Pb.hard_violations problem [| false; false |]);
  check_int "soft cost when unassigned" 3
    (Pb.soft_cost problem [| false; false |]);
  check_bool "feasible" true (Pb.feasible problem [| false; false |])

(* ----------------------------- Exact ----------------------------- *)

let test_exact_sat () =
  let problem =
    Pb.make ~num_vars:3
      [ Pb.Hard (Pb.exactly_one [ 0; 1 ]); Pb.Hard (Pb.exactly_one [ 1; 2 ]) ]
  in
  match Exact.solve problem with
  | Exact.Sat a -> check_bool "model feasible" true (Pb.feasible problem a)
  | Exact.Unsat | Exact.Unknown -> Alcotest.fail "expected SAT"

let test_exact_unsat () =
  (* x0 = 1 and x1 = 1 and x0 + x1 <= 1 is unsatisfiable. *)
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.exactly_one [ 1 ]);
        Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  check_bool "unsat" true (Exact.solve problem = Exact.Unsat)

let test_exact_count () =
  let problem =
    Pb.make ~num_vars:4 [ Pb.Hard (Pb.exactly_one [ 0; 1; 2; 3 ]) ]
  in
  check_int "4 models" 4 (Exact.count_solutions problem);
  let free = Pb.make ~num_vars:4 [] in
  check_int "16 models" 16 (Exact.count_solutions free)

let test_exact_ignores_soft () =
  let problem = Pb.make ~num_vars:1 [ Pb.Soft (Pb.exactly_one [ 0 ], 5) ] in
  check_int "soft ignored: 2 models" 2 (Exact.count_solutions problem)

(* ---------------------------- Wsat_oip --------------------------- *)

let quick_params = { Wsat_oip.default_params with max_flips = 20_000 }

let test_wsat_simple_sat () =
  let problem =
    Pb.make ~num_vars:4
      [ Pb.Hard (Pb.exactly_one [ 0; 1 ]); Pb.Hard (Pb.exactly_one [ 2; 3 ]);
        Pb.Hard (Pb.at_most_one [ 0; 2 ]) ]
  in
  let result = Wsat_oip.solve ~params:quick_params problem in
  check_bool "feasible" true result.Wsat_oip.feasible;
  check_int "no hard violations" 0 result.Wsat_oip.hard_violations

let test_wsat_soft_optimization () =
  (* Hard: at most one of x0,x1. Soft: both wanted. The optimum keeps one. *)
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.at_most_one [ 0; 1 ]);
        Pb.Soft (Pb.exactly_one [ 0 ], 1);
        Pb.Soft (Pb.exactly_one [ 1 ], 1) ]
  in
  let result = Wsat_oip.solve ~params:quick_params problem in
  check_bool "feasible" true result.Wsat_oip.feasible;
  check_int "one soft violated" 1 result.Wsat_oip.soft_cost

let test_wsat_unsat_reports_infeasible () =
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.exactly_one [ 1 ]);
        Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  let params = { quick_params with max_flips = 2_000; max_tries = 2 } in
  let result = Wsat_oip.solve ~params problem in
  check_bool "not feasible" false result.Wsat_oip.feasible

let test_wsat_deterministic () =
  let problem =
    Pb.make ~num_vars:6
      [ Pb.Hard (Pb.exactly_one [ 0; 1; 2 ]);
        Pb.Hard (Pb.exactly_one [ 3; 4; 5 ]);
        Pb.Hard (Pb.at_most_one [ 0; 3 ]) ]
  in
  let a = Wsat_oip.solve ~params:quick_params problem in
  let b = Wsat_oip.solve ~params:quick_params problem in
  check_bool "same assignment for same seed" true
    (a.Wsat_oip.assignment = b.Wsat_oip.assignment)

let test_wsat_empty_problem () =
  let problem = Pb.make ~num_vars:0 [] in
  let result = Wsat_oip.solve ~params:quick_params problem in
  check_bool "trivially feasible" true result.Wsat_oip.feasible

(* ------------------------- Random problems ------------------------ *)

(* Random assignment-shaped problems: disjoint exactly-one groups plus
   random at-most-one pairs; compare WSAT against the exact solver. *)
let random_problem rand =
  let num_groups = 2 + Random.State.int rand 4 in
  let group_size = 2 + Random.State.int rand 3 in
  let num_vars = num_groups * group_size in
  let groups =
    List.init num_groups (fun g ->
        Pb.Hard
          (Pb.exactly_one
             (List.init group_size (fun i -> (g * group_size) + i))))
  in
  let pairs =
    List.init (Random.State.int rand 6) (fun _ ->
        let v1 = Random.State.int rand num_vars in
        let v2 = Random.State.int rand num_vars in
        if v1 = v2 then None
        else Some (Pb.Hard (Pb.at_most_one [ v1; v2 ])))
    |> List.filter_map Fun.id
  in
  Pb.make ~num_vars (groups @ pairs)

let test_wsat_agrees_with_exact () =
  let rand = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let problem = random_problem rand in
    let exact = Exact.solve problem in
    let wsat = Wsat_oip.solve ~params:quick_params problem in
    match exact with
    | Exact.Sat _ ->
      check_bool "WSAT finds a model when one exists" true
        wsat.Wsat_oip.feasible
    | Exact.Unsat ->
      check_bool "WSAT cannot find a model of an UNSAT problem" false
        wsat.Wsat_oip.feasible
    | Exact.Unknown -> ()
  done

let prop_exact_model_is_feasible =
  QCheck.Test.make ~name:"exact solver models satisfy the problem" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let problem = random_problem rand in
      match Exact.solve problem with
      | Exact.Sat a -> Pb.feasible problem a
      | Exact.Unsat | Exact.Unknown -> true)

(* ---------------------------- Presolve ---------------------------- *)

let test_presolve_fixes_singletons () =
  let problem =
    Pb.make ~num_vars:3
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  match Presolve.run problem with
  | Presolve.Fixed fixed ->
    check_bool "x0 forced true" true (List.mem (0, true) fixed);
    check_bool "x1 propagated false" true (List.mem (1, false) fixed);
    check_bool "x2 untouched" true (not (List.mem_assoc 2 fixed))
  | Presolve.Conflict message -> Alcotest.failf "unexpected conflict: %s" message

let test_presolve_detects_conflict () =
  (* The Michigan certificate: two forced variables in one at-most-one. *)
  let problem =
    Pb.make ~num_vars:2
      [ Pb.Hard (Pb.exactly_one [ 0 ]); Pb.Hard (Pb.exactly_one [ 1 ]);
        Pb.Hard (Pb.at_most_one [ 0; 1 ]) ]
  in
  check_bool "conflict found" true (Presolve.is_unsat problem)

let test_presolve_ge_propagation () =
  (* x0 + x1 >= 2 forces both. *)
  let problem =
    Pb.make ~num_vars:2 [ Pb.Hard (Pb.linear [ (0, 1); (1, 1) ] Pb.Ge 2) ]
  in
  match Presolve.run problem with
  | Presolve.Fixed fixed ->
    check_bool "both forced" true
      (List.mem (0, true) fixed && List.mem (1, true) fixed)
  | Presolve.Conflict _ -> Alcotest.fail "not a conflict"

let test_presolve_negative_coefficients () =
  (* x0 - x1 >= 1 forces x0 = 1 and x1 = 0. *)
  let problem =
    Pb.make ~num_vars:2 [ Pb.Hard (Pb.linear [ (0, 1); (1, -1) ] Pb.Ge 1) ]
  in
  match Presolve.run problem with
  | Presolve.Fixed fixed ->
    check_bool "x0 true, x1 false" true
      (List.mem (0, true) fixed && List.mem (1, false) fixed)
  | Presolve.Conflict _ -> Alcotest.fail "not a conflict"

let test_presolve_no_false_conflicts () =
  let problem =
    Pb.make ~num_vars:4
      [ Pb.Hard (Pb.exactly_one [ 0; 1 ]); Pb.Hard (Pb.exactly_one [ 2; 3 ]) ]
  in
  check_bool "satisfiable problem passes" false (Presolve.is_unsat problem)

let prop_presolve_agrees_with_exact =
  QCheck.Test.make
    ~name:"presolve conflicts only on UNSAT; fixings preserve models"
    ~count:80
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rand = Random.State.make [| seed + 17 |] in
      let problem = random_problem rand in
      match (Presolve.run problem, Exact.solve problem) with
      | Presolve.Conflict _, Exact.Unsat -> true
      | Presolve.Conflict _, (Exact.Sat _ | Exact.Unknown) -> false
      | Presolve.Fixed fixed, Exact.Sat _ ->
        (* A forced literal is a consequence: pinning its negation must
           make the problem unsatisfiable. *)
        List.for_all
          (fun (v, value) ->
            let pin_negation =
              Pb.Hard
                (Pb.linear [ (v, 1) ] Pb.Eq (if value then 0 else 1))
            in
            Exact.solve
              (Pb.make ~num_vars:problem.Pb.num_vars
                 (pin_negation
                 :: List.init (Pb.num_rows problem) (Pb.row problem)))
            = Exact.Unsat)
          fixed
      | Presolve.Fixed _, (Exact.Unsat | Exact.Unknown) -> true)

(* ------------------ Former solvers: the references ------------------ *)

(* The list-based problem the solvers read before the flat kernel: one
   record per row, built by the test from the same rows it hands to
   [Pb.make]. *)
type rows = {
  num_vars : int;
  constraints : Pb.constraint_ array;
}

let rows_of ~num_vars constraints =
  { num_vars; constraints = Array.of_list constraints }

(* [Wsat_oip.solve] as it was before the flat kernel, kept verbatim (its
   final counts read the rows through [Pb.violation]) as the reference the
   kernel's walk must equal flip for flip. *)
module Former_wsat = struct
  open Wsat_oip

  (* Per-constraint static data extracted from the problem. *)
  type row = {
    terms : (int * int) array;
    relation : Pb.relation;
    bound : int;
    weight : int;  (* penalty per unit of violation *)
    hard : bool;
  }

  type state = {
    rows : row array;
    var_rows : (int * int) array array;  (* var -> (row index, coeff) *)
    assignment : bool array;
    lhs : int array;  (* current Σ coeff·x per row *)
    (* Violated-row set with O(1) add/remove: *)
    violated : int array;  (* dense array of violated row indices *)
    mutable violated_count : int;
    violated_position : int array;  (* row -> index in [violated], or -1 *)
    mutable score : int;  (* total weighted violation, hard and soft *)
    mutable hard_violation_units : int;  (* Σ violation over hard rows *)
    last_flip : int array;  (* var -> flip number of last flip *)
  }

  let row_violation row lhs =
    match row.relation with
    | Pb.Le -> max 0 (lhs - row.bound)
    | Pb.Ge -> max 0 (row.bound - lhs)
    | Pb.Eq -> abs (lhs - row.bound)

  let make_rows (problem : rows) hard_weight =
    Array.map
      (fun constraint_ ->
        match constraint_ with
        | Pb.Hard { Pb.terms; relation; bound } ->
          { terms; relation; bound; weight = hard_weight; hard = true }
        | Pb.Soft ({ Pb.terms; relation; bound }, weight) ->
          { terms; relation; bound; weight; hard = false })
      problem.constraints

  let make_var_rows num_vars rows =
    let buckets = Array.make num_vars [] in
    Array.iteri
      (fun r row ->
        Array.iter
          (fun (v, coeff) -> buckets.(v) <- (r, coeff) :: buckets.(v))
          row.terms)
      rows;
    Array.map Array.of_list buckets

  let init_state problem params rng =
    let rows = make_rows problem params.hard_weight in
    let num_vars = problem.num_vars in
    let state =
      {
        rows;
        var_rows = make_var_rows num_vars rows;
        assignment =
          Array.init num_vars (fun _ ->
              Random.State.float rng 1.0 < params.init_density);
        lhs = Array.make (Array.length rows) 0;
        violated = Array.make (max 1 (Array.length rows)) 0;
        violated_count = 0;
        violated_position = Array.make (max 1 (Array.length rows)) (-1);
        score = 0;
        hard_violation_units = 0;
        last_flip = Array.make (max 1 num_vars) min_int;
      }
    in
    Array.iteri
      (fun r row ->
        let lhs =
          Array.fold_left
            (fun acc (v, coeff) ->
              if state.assignment.(v) then acc + coeff else acc)
            0 row.terms
        in
        state.lhs.(r) <- lhs;
        let violation = row_violation row lhs in
        if violation > 0 then begin
          state.violated.(state.violated_count) <- r;
          state.violated_position.(r) <- state.violated_count;
          state.violated_count <- state.violated_count + 1;
          state.score <- state.score + (row.weight * violation);
          if row.hard then
            state.hard_violation_units <- state.hard_violation_units + violation
        end)
      rows;
    state

  (* Apply the lhs delta of one row after a flip, keeping the violated set,
     score and hard-violation counter in sync. *)
  let update_row state r delta =
    let row = state.rows.(r) in
    let old_violation = row_violation row state.lhs.(r) in
    state.lhs.(r) <- state.lhs.(r) + delta;
    let new_violation = row_violation row state.lhs.(r) in
    if old_violation = new_violation then ()
    else begin
      state.score <- state.score + (row.weight * (new_violation - old_violation));
      if row.hard then
        state.hard_violation_units <-
          state.hard_violation_units + new_violation - old_violation;
      if old_violation = 0 then begin
        state.violated.(state.violated_count) <- r;
        state.violated_position.(r) <- state.violated_count;
        state.violated_count <- state.violated_count + 1
      end
      else if new_violation = 0 then begin
        let position = state.violated_position.(r) in
        let last = state.violated_count - 1 in
        let moved = state.violated.(last) in
        state.violated.(position) <- moved;
        state.violated_position.(moved) <- position;
        state.violated_position.(r) <- -1;
        state.violated_count <- last
      end
    end

  let flip state v =
    let now = state.assignment.(v) in
    state.assignment.(v) <- not now;
    Array.iter
      (fun (r, coeff) ->
        let delta = if now then -coeff else coeff in
        update_row state r delta)
      state.var_rows.(v)

  (* Score change if [v] were flipped (without committing). *)
  let flip_delta state v =
    let now = state.assignment.(v) in
    Array.fold_left
      (fun acc (r, coeff) ->
        let row = state.rows.(r) in
        let delta = if now then -coeff else coeff in
        let old_violation = row_violation row state.lhs.(r) in
        let new_violation = row_violation row (state.lhs.(r) + delta) in
        acc + (row.weight * (new_violation - old_violation)))
      0 state.var_rows.(v)

  (* Pick a violated row, preferring hard ones. *)
  let pick_violated state rng =
    if state.violated_count = 0 then None
    else begin
      let hard = ref [] and soft = ref [] in
      for i = 0 to state.violated_count - 1 do
        let r = state.violated.(i) in
        if state.rows.(r).hard then hard := r :: !hard else soft := r :: !soft
      done;
      let pool = if !hard <> [] then !hard else !soft in
      let n = List.length pool in
      Some (List.nth pool (Random.State.int rng n))
    end

  let choose_variable state params rng flip_number best_score row =
    let vars = Array.map fst state.rows.(row).terms in
    if Array.length vars = 0 then None
    else if Random.State.float rng 1.0 < params.noise then
      Some vars.(Random.State.int rng (Array.length vars))
    else begin
      let best = ref None in
      Array.iter
        (fun v ->
          let delta = flip_delta state v in
          let tabu =
            params.tabu > 0 && flip_number - state.last_flip.(v) <= params.tabu
          in
          (* Aspiration: a tabu move is allowed if it beats the best score
             seen so far. *)
          let allowed = (not tabu) || state.score + delta < best_score in
          if allowed then
            match !best with
            | Some (_, best_delta) when best_delta <= delta -> ()
            | _ -> best := Some (v, delta))
        vars;
      match !best with
      | Some (v, _) -> Some v
      | None -> Some vars.(Random.State.int rng (Array.length vars))
    end

  let hard_violations problem assignment =
    Array.fold_left
      (fun acc constraint_ ->
        match constraint_ with
        | Pb.Hard l -> if Pb.satisfied l assignment then acc else acc + 1
        | Pb.Soft _ -> acc)
      0 problem.constraints

  let soft_cost problem assignment =
    Array.fold_left
      (fun acc constraint_ ->
        match constraint_ with
        | Pb.Hard _ -> acc
        | Pb.Soft (l, w) -> acc + (w * Pb.violation l assignment))
      0 problem.constraints

  let solve ?(params = default_params) (problem : rows) =
    let rng = Random.State.make [| params.seed |] in
    let best_assignment = ref (Array.make (max 1 problem.num_vars) false) in
    let best_feasible = ref false in
    let best_score = ref max_int in
    let best_hard = ref max_int in
    let total_flips = ref 0 in
    let tries_used = ref 0 in
    let record state =
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
        best_assignment := Array.copy state.assignment;
        best_feasible := feasible;
        best_score := state.score;
        best_hard := state.hard_violation_units
      end
    in
    (try
       for _try = 1 to params.max_tries do
         incr tries_used;
         let state = init_state problem params rng in
         record state;
         let flip_number = ref 0 in
         let continue = ref true in
         while !continue && !flip_number < params.max_flips do
           match pick_violated state rng with
           | None ->
             (* Every constraint satisfied: global optimum. *)
             record state;
             raise Exit
           | Some row ->
             (match
                choose_variable state params rng !flip_number !best_score row
              with
             | None -> continue := false
             | Some v ->
               flip state v;
               state.last_flip.(v) <- !flip_number;
               incr flip_number;
               incr total_flips;
               record state)
         done
       done
     with Exit -> ());
    let assignment = !best_assignment in
    {
      assignment;
      feasible = hard_violations problem assignment = 0;
      hard_violations = hard_violations problem assignment;
      soft_cost = soft_cost problem assignment;
      flips_used = !total_flips;
      tries_used = !tries_used;
    }
end

(* [Presolve.run] as it was before the flat kernel, kept verbatim as the
   reference for its outcome: the forced literals in trail order, or the
   conflict message. *)
module Former_presolve = struct
  open Presolve

  type state = {
    value : int array;  (* -1 unknown, 0 false, 1 true *)
    trail : (int * bool) list ref;
  }

  (* For one constraint under the current partial assignment: the fixed
     contribution and the positive/negative potential of the unknowns. *)
  let bounds state (linear : Pb.linear) =
    let fixed = ref 0 and positive = ref 0 and negative = ref 0 in
    let unknowns = ref [] in
    Array.iter
      (fun (v, coeff) ->
        match state.value.(v) with
        | 1 -> fixed := !fixed + coeff
        | 0 -> ()
        | _ ->
          unknowns := (v, coeff) :: !unknowns;
          if coeff > 0 then positive := !positive + coeff
          else negative := !negative + coeff)
      linear.Pb.terms;
    (!fixed, !positive, !negative, !unknowns)

  exception Found_conflict of string

  let assign state v value =
    match state.value.(v) with
    | -1 ->
      state.value.(v) <- (if value then 1 else 0);
      state.trail := (v, value) :: !(state.trail);
      true
    | current when (current = 1) = value -> false
    | _ ->
      raise
        (Found_conflict
           (Printf.sprintf "variable x%d forced both ways" (v + 1)))

  (* Propagate one constraint; true if any variable was newly fixed. *)
  let propagate state (linear : Pb.linear) =
    let fixed, positive, negative, unknowns = bounds state linear in
    let lo = fixed + negative and hi = fixed + positive in
    let describe () = Format.asprintf "%a" Pb.pp_linear linear in
    let changed = ref false in
    let force v value = if assign state v value then changed := true in
    (match linear.Pb.relation with
    | Pb.Le ->
      if lo > linear.Pb.bound then raise (Found_conflict (describe ()));
      (* A positive unknown whose addition would break the bound must be 0;
         a negative unknown whose absence would break it must be 1. *)
      List.iter
        (fun (v, coeff) ->
          if coeff > 0 && lo + coeff > linear.Pb.bound then force v false
          else if coeff < 0 && lo - coeff > linear.Pb.bound then force v true)
        unknowns
    | Pb.Ge ->
      if hi < linear.Pb.bound then raise (Found_conflict (describe ()));
      List.iter
        (fun (v, coeff) ->
          if coeff > 0 && hi - coeff < linear.Pb.bound then force v true
          else if coeff < 0 && hi + coeff < linear.Pb.bound then force v false)
        unknowns
    | Pb.Eq ->
      if lo > linear.Pb.bound || hi < linear.Pb.bound then
        raise (Found_conflict (describe ()));
      List.iter
        (fun (v, coeff) ->
          if coeff > 0 then begin
            if lo + coeff > linear.Pb.bound then force v false
            else if hi - coeff < linear.Pb.bound then force v true
          end
          else begin
            if lo - coeff > linear.Pb.bound then force v true
            else if hi + coeff < linear.Pb.bound then force v false
          end)
        unknowns);
    !changed

  let run (problem : rows) =
    let state =
      { value = Array.make (max 1 problem.num_vars) (-1); trail = ref [] }
    in
    let hard =
      Array.to_list problem.constraints
      |> List.filter_map (function Pb.Hard l -> Some l | Pb.Soft _ -> None)
    in
    try
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun linear -> if propagate state linear then changed := true)
          hard
      done;
      Fixed (List.rev !(state.trail))
    with Found_conflict message -> Conflict message
end

(* Random problems over every row shape the solvers accept: 0-40
   variables; 0-16 rows of up to 6 distinct variables in random order with
   coefficients in -3..3, any relation, a bound the row can reach (or one
   above its reach), a quarter of them soft with a weight in 1..5. Of 2,000
   cases, about half end presolve in a conflict and a quarter with forced
   literals; about two fifths of the walks find a feasible point, a
   quarter satisfy every row before their tries run out and half
   restart. *)
let gen_rows =
  let open QCheck.Gen in
  int_range 0 40 >>= fun num_vars ->
  let gen_row =
    (if num_vars = 0 then return []
     else
       list_size (int_range 0 6)
         (pair (int_bound (num_vars - 1)) (int_range (-3) 3))
       >|= fun terms ->
       List.rev
         (List.fold_left
            (fun kept (v, coeff) ->
              if List.mem_assoc v kept then kept else (v, coeff) :: kept)
            [] terms))
    >>= fun terms ->
    frequencyl [ (3, Pb.Le); (2, Pb.Ge); (1, Pb.Eq) ] >>= fun relation ->
    let lo = List.fold_left (fun acc (_, c) -> acc + min c 0) 0 terms in
    let hi = List.fold_left (fun acc (_, c) -> acc + max c 0) 0 terms in
    int_range lo (hi + 1) >>= fun bound ->
    let linear = Pb.linear terms relation bound in
    frequency
      [
        (3, return (Pb.Hard linear));
        (1, int_range 1 5 >|= fun weight -> Pb.Soft (linear, weight));
      ]
  in
  list_size (int_range 0 16) gen_row >|= fun constraints ->
  (num_vars, constraints)

(* Walks short enough to end in every way a walk ends: out of flips, out
   of tries, or at a point that satisfies every row. *)
let gen_params =
  let open QCheck.Gen in
  int_range 0 60 >>= fun max_flips ->
  int_range 1 4 >>= fun max_tries ->
  oneofl [ 0.; 0.1; 0.5; 1. ] >>= fun noise ->
  oneofl [ 0; 1; 3 ] >>= fun tabu ->
  oneofl [ 1; 1000 ] >>= fun hard_weight ->
  oneofl [ 0.; 0.5; 1. ] >>= fun init_density ->
  int_bound 10_000 >|= fun seed ->
  { Wsat_oip.max_flips; max_tries; noise; tabu; hard_weight; init_density;
    seed }

let print_rows (num_vars, constraints) =
  Format.asprintf "%a" Pb.pp (Pb.make ~num_vars constraints)

let print_params (p : Wsat_oip.params) =
  Printf.sprintf
    "max_flips %d, max_tries %d, noise %g, tabu %d, hard_weight %d, \
     init_density %g, seed %d"
    p.Wsat_oip.max_flips p.max_tries p.noise p.tabu p.hard_weight
    p.init_density p.seed

let prop_wsat_matches_former =
  QCheck.Test.make ~name:"WSAT equals the former list-based walk" ~count:2000
    (QCheck.pair
       (QCheck.make ~print:print_rows gen_rows)
       (QCheck.make ~print:print_params gen_params))
    (fun ((num_vars, constraints), params) ->
      Wsat_oip.solve ~params (Pb.make ~num_vars constraints)
      = Former_wsat.solve ~params (rows_of ~num_vars constraints))

let prop_presolve_matches_former =
  QCheck.Test.make ~name:"presolve equals the former propagation" ~count:2000
    (QCheck.make ~print:print_rows gen_rows)
    (fun (num_vars, constraints) ->
      let problem = Pb.make ~num_vars constraints in
      let former = Former_presolve.run (rows_of ~num_vars constraints) in
      Presolve.run problem = former
      && Presolve.is_unsat problem
         = (match former with
           | Presolve.Conflict _ -> true
           | Presolve.Fixed _ -> false))

(* ------------------------------ Opb ------------------------------- *)

let sample_problem =
  Pb.make ~num_vars:4
    [ Pb.Hard (Pb.exactly_one [ 0; 1 ]);
      Pb.Hard (Pb.linear [ (1, 2); (2, -1) ] Pb.Ge 1);
      Pb.Soft (Pb.at_most_one [ 2; 3 ], 5) ]

let test_opb_to_string () =
  let text = Opb.to_string sample_problem in
  check_bool "header" true
    (String.length text > 0 && text.[0] = '*');
  check_bool "hard line" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> l = "+1 x1 +1 x2 = 1 ;"));
  check_bool "soft comment" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> l = "* soft 5: +1 x3 +1 x4 <= 1 ;"))

let test_opb_roundtrip () =
  match Opb.of_string (Opb.to_string sample_problem) with
  | Error message -> Alcotest.failf "parse failed: %s" message
  | Ok parsed ->
    check_int "num vars" sample_problem.Pb.num_vars parsed.Pb.num_vars;
    check_int "constraint count"
      (Pb.num_rows sample_problem)
      (Pb.num_rows parsed);
    (* Semantic equality: same violations on every assignment. *)
    for mask = 0 to 15 do
      let assignment = Array.init 4 (fun v -> mask land (1 lsl v) <> 0) in
      check_int "hard violations agree"
        (Pb.hard_violations sample_problem assignment)
        (Pb.hard_violations parsed assignment);
      check_int "soft cost agrees"
        (Pb.soft_cost sample_problem assignment)
        (Pb.soft_cost parsed assignment)
    done

let test_opb_parse_errors () =
  check_bool "garbage rejected" true
    (Result.is_error (Opb.of_string "+1 y2 >= 1 ;"));
  check_bool "missing bound rejected" true
    (Result.is_error (Opb.of_string "+1 x1 >= ;"));
  check_bool "plain comments skipped" true
    (Result.is_ok (Opb.of_string "* just a note\n+1 x1 >= 0 ;"))

let prop_opb_roundtrip_random =
  QCheck.Test.make ~name:"OPB round-trip preserves semantics" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let problem = random_problem rand in
      match Opb.of_string (Opb.to_string problem) with
      | Error _ -> false
      | Ok parsed ->
        let ok = ref (problem.Pb.num_vars = parsed.Pb.num_vars) in
        for _ = 1 to 20 do
          let assignment =
            Array.init problem.Pb.num_vars (fun _ -> Random.State.bool rand)
          in
          if
            Pb.hard_violations problem assignment
            <> Pb.hard_violations parsed assignment
          then ok := false
        done;
        !ok)

(* ---------------------------- Allocation --------------------------- *)

let table4_observations () =
  List.concat_map
    (fun site ->
      let generated = Tabseg_sitegen.Sites.generate site in
      List.mapi
        (fun page_index _ ->
          let list_pages, detail_pages =
            Tabseg_sitegen.Sites.segmentation_input generated ~page_index
          in
          (Tabseg.Pipeline.prepare { Tabseg.Pipeline.list_pages; detail_pages })
            .Tabseg.Pipeline.observation)
        generated.Tabseg_sitegen.Sites.pages)
    Tabseg_sitegen.Sites.all

(* The CSP path's allocation over the 24 Table 4 observations: the
   encoder writes each problem's rows into exactly sized flat arrays,
   each solve builds one var->rows index, and WSAT flips and presolve
   passes allocate nothing per row, so the pages cost ~0.92M minor
   words; a block per row, a record per row per try and a list per flip
   cost 6.70M. [Gc.minor_words] repeats exactly from run to run, so the bound
   holds on any host. *)
let test_solve_allocation () =
  let observations = table4_observations () in
  let before = Gc.minor_words () in
  List.iter
    (fun observation ->
      ignore
        (Sys.opaque_identity
           (Tabseg.Csp_segmenter.solve_observation observation)))
    observations;
  let words = Gc.minor_words () -. before in
  if words > 3e6 then
    Alcotest.failf "solving Table 4 allocates %.2fM minor words (bound 3M)"
      (words /. 1e6)

let () =
  Alcotest.run "tabseg_csp"
    [
      ( "pb",
        [
          Alcotest.test_case "violation le" `Quick test_violation_le;
          Alcotest.test_case "violation ge" `Quick test_violation_ge;
          Alcotest.test_case "violation eq" `Quick test_violation_eq;
          Alcotest.test_case "negative coefficients" `Quick
            test_negative_coefficients;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "costs" `Quick test_costs;
          Alcotest.test_case "make reports the first bad row" `Quick
            test_make_first_bad_row;
        ] );
      ( "exact",
        [
          Alcotest.test_case "sat" `Quick test_exact_sat;
          Alcotest.test_case "unsat" `Quick test_exact_unsat;
          Alcotest.test_case "count" `Quick test_exact_count;
          Alcotest.test_case "ignores soft" `Quick test_exact_ignores_soft;
        ] );
      ( "wsat",
        [
          Alcotest.test_case "simple sat" `Quick test_wsat_simple_sat;
          Alcotest.test_case "soft optimization" `Quick
            test_wsat_soft_optimization;
          Alcotest.test_case "unsat reports infeasible" `Quick
            test_wsat_unsat_reports_infeasible;
          Alcotest.test_case "deterministic" `Quick test_wsat_deterministic;
          Alcotest.test_case "empty problem" `Quick test_wsat_empty_problem;
          Alcotest.test_case "agrees with exact on random problems" `Quick
            test_wsat_agrees_with_exact;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "fixes singletons" `Quick
            test_presolve_fixes_singletons;
          Alcotest.test_case "detects conflict" `Quick
            test_presolve_detects_conflict;
          Alcotest.test_case "ge propagation" `Quick
            test_presolve_ge_propagation;
          Alcotest.test_case "negative coefficients" `Quick
            test_presolve_negative_coefficients;
          Alcotest.test_case "no false conflicts" `Quick
            test_presolve_no_false_conflicts;
          QCheck_alcotest.to_alcotest prop_presolve_agrees_with_exact;
        ] );
      ( "opb",
        [
          Alcotest.test_case "to_string" `Quick test_opb_to_string;
          Alcotest.test_case "roundtrip" `Quick test_opb_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_opb_parse_errors;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_exact_model_is_feasible;
          QCheck_alcotest.to_alcotest prop_opb_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_wsat_matches_former;
          QCheck_alcotest.to_alcotest prop_presolve_matches_former;
        ] );
      (* Alcotest pads every test name to the longest group name and cuts
         it to fit the line, so a group name longer than "properties"
         would change how the other tests' names print. *)
      ( "alloc",
        [
          Alcotest.test_case "Table 4 solve: at most 3M minor words" `Quick
            test_solve_allocation;
        ] );
    ]
