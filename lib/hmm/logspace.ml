let zero = neg_infinity
let one = 0.

let of_prob p =
  if p < 0. then invalid_arg "Logspace.of_prob: negative probability"
  else if p = 0. then zero
  else log p

let to_prob l = exp l

let is_zero l = l = neg_infinity

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if a >= b then a +. log1p (exp (b -. a))
  else b +. log1p (exp (a -. b))

let sum values =
  let maximum = ref zero in
  for j = 0 to Array.length values - 1 do
    let v = values.(j) in
    maximum := if !maximum >= v then !maximum else v
  done;
  if is_zero !maximum then zero
  else begin
    let total = ref 0. in
    for j = 0 to Array.length values - 1 do
      total := !total +. exp (values.(j) -. !maximum)
    done;
    !maximum +. log !total
  end

let mul a b = if is_zero a || is_zero b then zero else a +. b

let normalize values =
  let total = sum values in
  if not (is_zero total) then
    Array.iteri (fun i v -> values.(i) <- v -. total) values
