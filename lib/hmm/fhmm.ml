type structure = { states : int array array; preds : int array array array }

type weights = {
  init : float array;
  emit : float array array;
  trans : float array array;
}

type t = {
  structure : structure;
  weights : weights;
  alpha : float array array;  (* also Viterbi's scores *)
  beta : float array array;
  gamma : float array array;
  xi : float array;  (* one position's edges *)
  terms : float array;  (* forward: one state's incoming terms *)
  next : float array;  (* backward: emit * beta of each next state *)
  maxima : float array;
  totals : float array;
  mutable log_likelihood : float;
}

(* The log-space product and a float maximum, here rather than in
   [Logspace]: the passes call them once per edge, and only a call within
   the module is inlined (dev builds compile with -opaque). [Stdlib.max]
   compares boxed floats through the polymorphic comparison; [fmax] is
   the same [a >= b] test on unboxed ones. *)
let[@inline] is_zero (l : float) = l = neg_infinity
let[@inline] mul a b = if is_zero a || is_zero b then neg_infinity else a +. b
let[@inline] fmax (a : float) b = if a >= b then a else b

let rows states init =
  Array.map (fun sa -> Array.make (Array.length sa) init) states

let create structure =
  let states = structure.states in
  let edges i =
    if i = 0 then 0
    else Array.fold_left (fun n ps -> n + Array.length ps) 0 structure.preds.(i)
  in
  let width = Array.fold_left (fun w sa -> max w (Array.length sa)) 0 states in
  let most_edges =
    Array.fold_left max 0 (Array.init (Array.length states) edges)
  in
  {
    structure;
    weights =
      {
        init =
          (if Array.length states = 0 then [||]
           else Array.make (Array.length states.(0)) neg_infinity);
        emit = rows states neg_infinity;
        trans =
          Array.init (Array.length states) (fun i ->
              Array.make (edges i) neg_infinity);
      };
    alpha = rows states neg_infinity;
    beta = rows states neg_infinity;
    gamma = rows states 0.;
    xi = Array.make most_edges 0.;
    terms = Array.make width neg_infinity;
    next = Array.make width neg_infinity;
    maxima = Array.make width neg_infinity;
    totals = Array.make width 0.;
    log_likelihood = neg_infinity;
  }

let weights t = t.weights
let gamma t = t.gamma

let start t (scores : float array) =
  let init = t.weights.init and emit = t.weights.emit.(0) in
  for s = 0 to Array.length scores - 1 do
    scores.(s) <- mul init.(s) emit.(s)
  done

(* Each edge's weight is [trans.(i).(e)]: the edges of state [s] start
   where those of state [s - 1] end, so every pass walks them with one
   running offset. *)

let viterbi t =
  let states = t.structure.states in
  let length = Array.length states in
  if length = 0 then Some [||]
  else begin
    let score = t.alpha in
    let back = rows states (-1) in
    start t score.(0);
    for i = 1 to length - 1 do
      let prev_score = score.(i - 1) and cur_score = score.(i) in
      let preds = t.structure.preds.(i) and emit = t.weights.emit.(i)
      and trans = t.weights.trans.(i) and back = back.(i) in
      let e = ref 0 in
      for s = 0 to Array.length cur_score - 1 do
        let ps = preds.(s) in
        let emit = emit.(s) and best = ref neg_infinity in
        if not (is_zero emit) then
          for j = 0 to Array.length ps - 1 do
            let p = ps.(j) in
            if not (is_zero prev_score.(p)) then begin
              let candidate = mul prev_score.(p) (mul trans.(!e + j) emit) in
              if candidate > !best then begin
                best := candidate;
                back.(s) <- p
              end
            end
          done;
        cur_score.(s) <- !best;
        e := !e + Array.length ps
      done
    done;
    let last = length - 1 in
    let best = ref (-1) and best_score = ref neg_infinity in
    Array.iteri
      (fun s score ->
        if score > !best_score then begin
          best := s;
          best_score := score
        end)
      score.(last);
    if !best < 0 then None
    else begin
      let path = Array.make length 0 in
      let cursor = ref !best in
      for i = last downto 0 do
        path.(i) <- states.(i).(!cursor);
        if i > 0 then cursor := back.(i).(!cursor)
      done;
      Some path
    end
  end

(* alpha.(i).(s) is the log-sum-exp of the terms alpha.(i - 1).(p) *
   trans (p -> s), times emit s: the maximum first, then the total, in the
   order of [Logspace.sum]. *)
let forward t =
  let alpha = t.alpha and terms = t.terms in
  start t alpha.(0);
  for i = 1 to Array.length alpha - 1 do
    let prev_alpha = alpha.(i - 1) and cur_alpha = alpha.(i) in
    let preds = t.structure.preds.(i) and emit = t.weights.emit.(i)
    and trans = t.weights.trans.(i) in
    let e = ref 0 in
    for s = 0 to Array.length cur_alpha - 1 do
      let ps = preds.(s) in
      let n = Array.length ps and emit = emit.(s) in
      cur_alpha.(s) <- neg_infinity;
      if not (is_zero emit) then begin
        let maximum = ref neg_infinity in
        for j = 0 to n - 1 do
          let term = mul prev_alpha.(ps.(j)) trans.(!e + j) in
          terms.(j) <- term;
          maximum := fmax !maximum term
        done;
        if not (is_zero !maximum) then begin
          let total = ref 0. in
          for j = 0 to n - 1 do
            total := !total +. exp (terms.(j) -. !maximum)
          done;
          cur_alpha.(s) <- mul (!maximum +. log !total) emit
        end
      end;
      e := !e + n
    done
  done

(* beta.(i).(p) is the log-sum-exp, over q, of the terms
   trans (p -> q) * emit q * beta.(i + 1).(q). Each next state q pushes
   its terms into its predecessors, q ascending, first into their maxima
   and then into their totals: the two folds of [Logspace.sum], in its
   order. *)
let backward t =
  let beta = t.beta and next = t.next and maxima = t.maxima
  and totals = t.totals in
  let last = Array.length beta - 1 in
  Array.fill beta.(last) 0 (Array.length beta.(last)) 0.;
  for i = last - 1 downto 0 do
    let cur_beta = beta.(i) and next_beta = beta.(i + 1) in
    let preds = t.structure.preds.(i + 1) and emit = t.weights.emit.(i + 1)
    and trans = t.weights.trans.(i + 1) in
    let n = Array.length cur_beta in
    for q = 0 to Array.length next_beta - 1 do
      next.(q) <- mul emit.(q) next_beta.(q)
    done;
    Array.fill maxima 0 n neg_infinity;
    Array.fill totals 0 n 0.;
    let e = ref 0 in
    for q = 0 to Array.length next_beta - 1 do
      let ps = preds.(q) and weight = next.(q) in
      if not (is_zero weight) then
        for j = 0 to Array.length ps - 1 do
          let p = ps.(j) in
          maxima.(p) <- fmax maxima.(p) (mul trans.(!e + j) weight)
        done;
      e := !e + Array.length ps
    done;
    let e = ref 0 in
    for q = 0 to Array.length next_beta - 1 do
      let ps = preds.(q) and weight = next.(q) in
      if not (is_zero weight) then
        for j = 0 to Array.length ps - 1 do
          let p = ps.(j) in
          let term = mul trans.(!e + j) weight in
          if not (is_zero term) then
            totals.(p) <- totals.(p) +. exp (term -. maxima.(p))
        done;
      e := !e + Array.length ps
    done;
    for p = 0 to n - 1 do
      cur_beta.(p) <-
        (if is_zero maxima.(p) then neg_infinity
         else maxima.(p) +. log totals.(p))
    done
  done

let forward_backward t =
  let length = Array.length t.alpha in
  if length = 0 then Some 0.
  else begin
    forward t;
    let log_likelihood = Logspace.sum t.alpha.(length - 1) in
    if is_zero log_likelihood then None
    else begin
      backward t;
      t.log_likelihood <- log_likelihood;
      for i = 0 to length - 1 do
        let alpha = t.alpha.(i) and beta = t.beta.(i) and gamma = t.gamma.(i) in
        for s = 0 to Array.length gamma - 1 do
          gamma.(s) <- exp (mul alpha.(s) beta.(s) -. log_likelihood)
        done
      done;
      Some log_likelihood
    end
  end

let xi t i =
  let cells = t.xi and log_likelihood = t.log_likelihood in
  let prev_alpha = t.alpha.(i - 1) and beta = t.beta.(i) in
  let preds = t.structure.preds.(i) and emit = t.weights.emit.(i)
  and trans = t.weights.trans.(i) in
  let e = ref 0 in
  for s = 0 to Array.length preds - 1 do
    let ps = preds.(s) and emit = emit.(s) in
    let n = Array.length ps in
    if is_zero emit then Array.fill cells !e n 0.
    else begin
      let weight = mul emit beta.(s) in
      for j = 0 to n - 1 do
        cells.(!e + j) <-
          exp
            (mul prev_alpha.(ps.(j)) (mul trans.(!e + j) weight)
            -. log_likelihood)
      done
    end;
    e := !e + n
  done;
  cells
