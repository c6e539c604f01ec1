let nearest_rank n p =
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  max 1 (min n rank)

let supported_rank n p =
  if n <= 10 then None else Some (min (nearest_rank n p) (n - 10))

let sorted a =
  let copy = Array.copy a in
  Array.sort Float.compare copy;
  copy

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  (sorted a).(nearest_rank n p - 1)

let median a = percentile a 0.5

let tail a ~cap =
  let n = Array.length a in
  match supported_rank n cap with
  | None -> None
  | Some rank ->
    Some (float_of_int rank /. float_of_int n, (sorted a).(rank - 1))

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n
