type relation = Le | Ge | Eq

type linear = {
  terms : (int * int) array;
  relation : relation;
  bound : int;
}

type constraint_ = Hard of linear | Soft of linear * int

type problem = {
  num_vars : int;
  constraints : constraint_ array;
}

let linear terms relation bound =
  { terms = Array.of_list terms; relation; bound }

let at_most_one vars = linear (List.map (fun v -> (v, 1)) vars) Le 1
let exactly_one vars = linear (List.map (fun v -> (v, 1)) vars) Eq 1

let make ~num_vars constraints =
  let constraints = Array.of_list constraints in
  (* stamp.(v) = r + 1 once row r has mentioned v *)
  let stamp = Array.make (max 0 num_vars) 0 in
  Array.iteri
    (fun r constraint_ ->
      let (Hard { terms; _ } | Soft ({ terms; _ }, _)) = constraint_ in
      Array.iter
        (fun (v, _) ->
          if v < 0 || v >= num_vars then
            invalid_arg (Printf.sprintf "Pb.make: variable %d out of range" v);
          if stamp.(v) = r + 1 then
            invalid_arg (Printf.sprintf "Pb.make: duplicate variable %d" v);
          stamp.(v) <- r + 1)
        terms;
      match constraint_ with
      | Soft (_, w) when w <= 0 -> invalid_arg "Pb.make: non-positive soft weight"
      | Hard _ | Soft _ -> ())
    constraints;
  { num_vars; constraints }

let lhs linear assignment =
  Array.fold_left
    (fun acc (v, coeff) -> if assignment.(v) then acc + coeff else acc)
    0 linear.terms

let violation linear assignment =
  let value = lhs linear assignment in
  match linear.relation with
  | Le -> max 0 (value - linear.bound)
  | Ge -> max 0 (linear.bound - value)
  | Eq -> abs (value - linear.bound)

let satisfied linear assignment = violation linear assignment = 0

let hard_violations problem assignment =
  Array.fold_left
    (fun acc constraint_ ->
      match constraint_ with
      | Hard l -> if satisfied l assignment then acc else acc + 1
      | Soft _ -> acc)
    0 problem.constraints

let soft_cost problem assignment =
  Array.fold_left
    (fun acc constraint_ ->
      match constraint_ with
      | Hard _ -> acc
      | Soft (l, w) -> acc + (w * violation l assignment))
    0 problem.constraints

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

let pp ppf problem =
  Format.fprintf ppf "@[<v>vars: %d@," problem.num_vars;
  Array.iter
    (function
      | Hard l -> Format.fprintf ppf "%a@," pp_linear l
      | Soft (l, w) -> Format.fprintf ppf "[soft w=%d] %a@," w pp_linear l)
    problem.constraints;
  Format.fprintf ppf "@]"
