type relation = Le | Ge | Eq

type linear = {
  terms : (int * int) array;
  relation : relation;
  bound : int;
}

type constraint_ = Hard of linear | Soft of linear * int

type problem = {
  num_vars : int;
  row_start : int array;
  vars : int array;
  coeffs : int array;
  relations : relation array;
  bounds : int array;
  weights : int array;
}

let linear terms relation bound =
  { terms = Array.of_list terms; relation; bound }

let at_most_one vars = linear (List.map (fun v -> (v, 1)) vars) Le 1
let exactly_one vars = linear (List.map (fun v -> (v, 1)) vars) Eq 1

(* Checks rows in order, each row's terms before its weight, and reports
   the first bad one: stamp.(v) = r + 1 once row r has mentioned v. *)
let of_arrays ~num_vars ~row_start ~vars ~coeffs ~relations ~bounds ~weights =
  let num_rows = Array.length relations in
  let num_terms = Array.length vars in
  if
    Array.length row_start <> num_rows + 1
    || Array.length bounds <> num_rows
    || Array.length weights <> num_rows
    || Array.length coeffs <> num_terms
    || row_start.(0) <> 0
    || row_start.(num_rows) <> num_terms
  then invalid_arg "Pb.of_arrays: array lengths do not fit together";
  let stamp = Array.make (max 0 num_vars) 0 in
  for r = 0 to num_rows - 1 do
    if row_start.(r + 1) < row_start.(r) then
      invalid_arg "Pb.of_arrays: decreasing row offsets";
    for t = row_start.(r) to row_start.(r + 1) - 1 do
      let v = vars.(t) in
      if v < 0 || v >= num_vars then
        invalid_arg (Printf.sprintf "Pb.make: variable %d out of range" v);
      if stamp.(v) = r + 1 then
        invalid_arg (Printf.sprintf "Pb.make: duplicate variable %d" v);
      stamp.(v) <- r + 1
    done;
    if weights.(r) < 0 then invalid_arg "Pb.make: non-positive soft weight"
  done;
  { num_vars; row_start; vars; coeffs; relations; bounds; weights }

let make ~num_vars constraints =
  let num_rows = List.length constraints in
  let num_terms =
    List.fold_left
      (fun acc (Hard { terms; _ } | Soft ({ terms; _ }, _)) ->
        acc + Array.length terms)
      0 constraints
  in
  let row_start = Array.make (num_rows + 1) 0 in
  let vars = Array.make num_terms 0 and coeffs = Array.make num_terms 0 in
  let relations = Array.make num_rows Le in
  let bounds = Array.make num_rows 0 and weights = Array.make num_rows 0 in
  List.iteri
    (fun r constraint_ ->
      let linear, weight =
        match constraint_ with
        | Hard linear -> (linear, 0)
        (* A weight of 0 would make the row hard: -1 keeps it bad. *)
        | Soft (linear, weight) -> (linear, if weight > 0 then weight else -1)
      in
      let lo = row_start.(r) in
      Array.iteri
        (fun k (v, coeff) ->
          vars.(lo + k) <- v;
          coeffs.(lo + k) <- coeff)
        linear.terms;
      row_start.(r + 1) <- lo + Array.length linear.terms;
      relations.(r) <- linear.relation;
      bounds.(r) <- linear.bound;
      weights.(r) <- weight)
    constraints;
  of_arrays ~num_vars ~row_start ~vars ~coeffs ~relations ~bounds ~weights

let num_rows problem = Array.length problem.relations

let row problem r =
  let lo = problem.row_start.(r) in
  let linear =
    {
      terms =
        Array.init
          (problem.row_start.(r + 1) - lo)
          (fun k -> (problem.vars.(lo + k), problem.coeffs.(lo + k)));
      relation = problem.relations.(r);
      bound = problem.bounds.(r);
    }
  in
  if problem.weights.(r) = 0 then Hard linear
  else Soft (linear, problem.weights.(r))

type var_rows = {
  start : int array;
  rows : int array;
  coeffs : int array;
}

let var_rows problem =
  let num_vars = problem.num_vars in
  let num_terms = Array.length problem.vars in
  (* Count each variable's occurrences, then turn the counts into the
     end of each variable's span; filling from the first row on, each
     occurrence steps its variable's end back by one, so a variable's
     rows come out in descending order and [start.(v)] ends at its
     span's beginning. *)
  let start = Array.make (num_vars + 1) 0 in
  for t = 0 to num_terms - 1 do
    let v = problem.vars.(t) in
    start.(v) <- start.(v) + 1
  done;
  for v = 1 to num_vars - 1 do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  start.(num_vars) <- num_terms;
  let rows = Array.make num_terms 0 and coeffs = Array.make num_terms 0 in
  for r = 0 to num_rows problem - 1 do
    for t = problem.row_start.(r) to problem.row_start.(r + 1) - 1 do
      let v = problem.vars.(t) in
      let k = start.(v) - 1 in
      start.(v) <- k;
      rows.(k) <- r;
      coeffs.(k) <- problem.coeffs.(t)
    done
  done;
  { start; rows; coeffs }

let violation_of relation bound value =
  match relation with
  | Le -> if value > bound then value - bound else 0
  | Ge -> if bound > value then bound - value else 0
  | Eq -> abs (value - bound)

let lhs linear assignment =
  Array.fold_left
    (fun acc (v, coeff) -> if assignment.(v) then acc + coeff else acc)
    0 linear.terms

let violation linear assignment =
  violation_of linear.relation linear.bound (lhs linear assignment)

let satisfied linear assignment = violation linear assignment = 0

let row_violation problem assignment r =
  let value = ref 0 in
  for t = problem.row_start.(r) to problem.row_start.(r + 1) - 1 do
    if assignment.(problem.vars.(t)) then
      value := !value + problem.coeffs.(t)
  done;
  violation_of problem.relations.(r) problem.bounds.(r) !value

let hard_violations problem assignment =
  let count = ref 0 in
  for r = 0 to num_rows problem - 1 do
    if problem.weights.(r) = 0 && row_violation problem assignment r > 0 then
      incr count
  done;
  !count

let soft_cost problem assignment =
  let cost = ref 0 in
  for r = 0 to num_rows problem - 1 do
    let weight = problem.weights.(r) in
    if weight > 0 then
      cost := !cost + (weight * row_violation problem assignment r)
  done;
  !cost

let feasible problem assignment = hard_violations problem assignment = 0

let pp_relation ppf = function
  | Le -> Format.pp_print_string ppf "<="
  | Ge -> Format.pp_print_string ppf ">="
  | Eq -> Format.pp_print_string ppf "="

let pp_linear ppf { terms; relation; bound } =
  let pp_term ppf (v, coeff) =
    if coeff = 1 then Format.fprintf ppf "x%d" v
    else Format.fprintf ppf "%d*x%d" coeff v
  in
  Format.fprintf ppf "@[<h>%a %a %d@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
       pp_term)
    (Array.to_list terms) pp_relation relation bound

let pp_row problem ppf r =
  match row problem r with Hard l | Soft (l, _) -> pp_linear ppf l

let pp ppf problem =
  Format.fprintf ppf "@[<v>vars: %d@," problem.num_vars;
  for r = 0 to num_rows problem - 1 do
    match row problem r with
    | Hard l -> Format.fprintf ppf "%a@," pp_linear l
    | Soft (l, w) -> Format.fprintf ppf "[soft w=%d] %a@," w pp_linear l
  done;
  Format.fprintf ppf "@]"
