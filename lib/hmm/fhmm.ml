type lattice = {
  length : int;
  states : int -> int array;
  preds : int -> int -> int array;
  init : int -> float;
  trans : int -> int -> int -> float;
  emit : int -> int -> float;
}

let state_table lattice =
  Array.init lattice.length (fun i -> lattice.states i)

(* Every pass visits only the [preds] of each state. A left-out
   predecessor has a [Logspace.zero] transition, so its term is zero: it
   moves no maximum, adds exactly 0 to every sum and never wins a strict
   comparison. The kept terms are visited in ascending predecessor order,
   the order of the dense loops over every pair, so each result is the
   same in every bit. *)

let viterbi lattice =
  if lattice.length = 0 then Some [||]
  else begin
    let states = state_table lattice in
    let score = Array.map (fun sa -> Array.make (Array.length sa) Logspace.zero) states in
    let back = Array.map (fun sa -> Array.make (Array.length sa) (-1)) states in
    Array.iteri
      (fun s state ->
        score.(0).(s) <- Logspace.mul (lattice.init state) (lattice.emit 0 state))
      states.(0);
    for i = 1 to lattice.length - 1 do
      let prev_states = states.(i - 1) and prev_score = score.(i - 1) in
      Array.iteri
        (fun s state ->
          let emit = lattice.emit i state in
          if not (Logspace.is_zero emit) then
            Array.iter
              (fun p ->
                if not (Logspace.is_zero prev_score.(p)) then begin
                  let candidate =
                    Logspace.mul prev_score.(p)
                      (Logspace.mul (lattice.trans i prev_states.(p) state) emit)
                  in
                  if candidate > score.(i).(s) then begin
                    score.(i).(s) <- candidate;
                    back.(i).(s) <- p
                  end
                end)
              (lattice.preds i s))
        states.(i)
    done;
    let last = lattice.length - 1 in
    let best = ref (-1) and best_score = ref Logspace.zero in
    Array.iteri
      (fun s _ ->
        if score.(last).(s) > !best_score then begin
          best := s;
          best_score := score.(last).(s)
        end)
      states.(last);
    if !best < 0 then None
    else begin
      let path = Array.make lattice.length 0 in
      let cursor = ref !best in
      for i = last downto 0 do
        path.(i) <- states.(i).(!cursor);
        if i > 0 then cursor := back.(i).(!cursor)
      done;
      Some path
    end
  end

type posteriors = {
  log_likelihood : float;
  gamma : float array array;
  xi : (int * int * float) list array;
}

let forward_backward lattice =
  if lattice.length = 0 then
    Some { log_likelihood = 0.; gamma = [||]; xi = [||] }
  else begin
    let states = state_table lattice in
    let alpha = Array.map (fun sa -> Array.make (Array.length sa) Logspace.zero) states in
    let beta = Array.map (fun sa -> Array.make (Array.length sa) Logspace.zero) states in
    (* Scratch rows, reused at every position. *)
    let width = Array.fold_left (fun w sa -> max w (Array.length sa)) 0 states in
    let terms = Array.make width Logspace.zero in
    Array.iteri
      (fun s state ->
        alpha.(0).(s) <- Logspace.mul (lattice.init state) (lattice.emit 0 state))
      states.(0);
    for i = 1 to lattice.length - 1 do
      let prev_states = states.(i - 1) and prev_alpha = alpha.(i - 1) in
      Array.iteri
        (fun s state ->
          let emit = lattice.emit i state in
          if not (Logspace.is_zero emit) then begin
            let preds = lattice.preds i s in
            Array.iteri
              (fun j p ->
                terms.(j) <-
                  Logspace.mul prev_alpha.(p) (lattice.trans i prev_states.(p) state))
              preds;
            alpha.(i).(s) <-
              Logspace.mul (Logspace.sum_prefix terms (Array.length preds)) emit
          end)
        states.(i)
    done;
    let last = lattice.length - 1 in
    let log_likelihood = Logspace.sum alpha.(last) in
    if Logspace.is_zero log_likelihood then None
    else begin
      Array.iteri (fun s _ -> beta.(last).(s) <- Logspace.one) states.(last);
      (* beta.(i).(p) is the log-sum-exp, over q, of the terms
         trans (p -> q) * emit q * beta.(i + 1).(q). Each next state q
         pushes its terms into its predecessors, q ascending, first into
         their maxima and then into their totals: the two folds of
         [Logspace.sum], in its order. *)
      let weight = Array.make width Logspace.zero in
      let maxima = Array.make width Logspace.zero in
      let totals = Array.make width 0. in
      for i = last - 1 downto 0 do
        let cur_states = states.(i) and next_states = states.(i + 1) in
        Array.iteri
          (fun q next_state ->
            weight.(q) <-
              Logspace.mul (lattice.emit (i + 1) next_state) beta.(i + 1).(q))
          next_states;
        let push f =
          Array.iteri
            (fun q next_state ->
              if not (Logspace.is_zero weight.(q)) then
                Array.iter
                  (fun p ->
                    f p
                      (Logspace.mul
                         (lattice.trans (i + 1) cur_states.(p) next_state)
                         weight.(q)))
                  (lattice.preds (i + 1) q))
            next_states
        in
        let n = Array.length cur_states in
        Array.fill maxima 0 n Logspace.zero;
        Array.fill totals 0 n 0.;
        push (fun p term -> maxima.(p) <- max maxima.(p) term);
        push (fun p term ->
            if not (Logspace.is_zero term) then
              totals.(p) <- totals.(p) +. exp (term -. maxima.(p)));
        for p = 0 to n - 1 do
          if not (Logspace.is_zero maxima.(p)) then
            beta.(i).(p) <- maxima.(p) +. log totals.(p)
        done
      done;
      let gamma =
        Array.init lattice.length (fun i ->
            Array.init
              (Array.length states.(i))
              (fun s ->
                Logspace.to_prob
                  (Logspace.mul alpha.(i).(s) beta.(i).(s)
                  -. log_likelihood)))
      in
      let xi = Array.make lattice.length [] in
      for i = 1 to last do
        let prev_states = states.(i - 1) in
        let cells = ref [] in
        Array.iteri
          (fun s state ->
            let emit = lattice.emit i state in
            if not (Logspace.is_zero emit) then begin
              let weight = Logspace.mul emit beta.(i).(s) in
              Array.iter
                (fun p ->
                  let value =
                    Logspace.mul alpha.(i - 1).(p)
                      (Logspace.mul (lattice.trans i prev_states.(p) state) weight)
                    -. log_likelihood
                  in
                  let probability = Logspace.to_prob value in
                  if probability > 1e-12 then
                    cells := (p, s, probability) :: !cells)
                (lattice.preds i s)
            end)
          states.(i);
        xi.(i) <- !cells
      done;
      Some { log_likelihood; gamma; xi }
    end
  end

let path_log_prob lattice path =
  if Array.length path <> lattice.length then
    invalid_arg "Fhmm.path_log_prob: length mismatch";
  if lattice.length = 0 then Logspace.one
  else begin
    let total =
      ref (Logspace.mul (lattice.init path.(0)) (lattice.emit 0 path.(0)))
    in
    for i = 1 to lattice.length - 1 do
      total :=
        Logspace.mul !total
          (Logspace.mul
             (lattice.trans i path.(i - 1) path.(i))
             (lattice.emit i path.(i)))
    done;
    !total
  end
