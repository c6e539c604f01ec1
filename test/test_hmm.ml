open Tabseg_hmm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------------------------- Logspace ---------------------------- *)

let test_logspace_add () =
  check_float "log(0.3+0.2)" (log 0.5)
    (Logspace.add (log 0.3) (log 0.2));
  check_float "zero + x = x" (log 0.7) (Logspace.add Logspace.zero (log 0.7));
  check_bool "zero + zero = zero" true
    (Logspace.is_zero (Logspace.add Logspace.zero Logspace.zero))

let test_logspace_sum () =
  let values = [| log 0.1; log 0.2; log 0.3 |] in
  check_float "sum" (log 0.6) (Logspace.sum values);
  check_bool "empty sum is zero" true (Logspace.is_zero (Logspace.sum [||]))

let test_logspace_mul () =
  check_float "product" (log 0.06) (Logspace.mul (log 0.2) (log 0.3));
  check_bool "absorbing zero" true
    (Logspace.is_zero (Logspace.mul Logspace.zero (log 0.5)))

let test_logspace_normalize () =
  let values = [| log 2.0; log 6.0 |] in
  Logspace.normalize values;
  check_float "first" (log 0.25) values.(0);
  check_float "second" (log 0.75) values.(1)

let test_logspace_of_prob () =
  check_bool "of_prob 0" true (Logspace.is_zero (Logspace.of_prob 0.));
  check_float "of_prob 1" 0. (Logspace.of_prob 1.);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Logspace.of_prob: negative probability") (fun () ->
      ignore (Logspace.of_prob (-0.1)))

let prop_logsumexp_stable =
  QCheck.Test.make ~name:"log-sum-exp matches naive sum on safe range"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 8) (float_bound_exclusive 1.0))
    (fun probabilities ->
      let probabilities = List.map (fun p -> p +. 1e-6) probabilities in
      let naive = log (List.fold_left ( +. ) 0. probabilities) in
      let stable =
        Logspace.sum (Array.of_list (List.map log probabilities))
      in
      Float.abs (naive -. stable) < 1e-9)

(* ------------------------------ Dist ------------------------------ *)

let test_dist_uniform () =
  let d = Dist.uniform 4 in
  check_float "prob" 0.25 (Dist.prob d 0);
  check_float "log prob" (log 0.25) (Dist.log_prob d 3)

let test_dist_estimate () =
  let d = Dist.estimate ~alpha:0.0001 ~counts:[| 1.; 3. |] () in
  check_bool "close to 0.25/0.75" true
    (Float.abs (Dist.prob d 0 -. 0.25) < 0.001
    && Float.abs (Dist.prob d 1 -. 0.75) < 0.001)

let test_dist_smoothing_avoids_zero () =
  let d = Dist.estimate ~alpha:0.5 ~counts:[| 0.; 10. |] () in
  check_bool "zero count smoothed" true (Dist.prob d 0 > 0.)

let test_dist_rejects_bad_weights () =
  Alcotest.check_raises "zero total"
    (Invalid_argument "Dist.of_weights: non-positive total") (fun () ->
      ignore (Dist.of_weights [| 0.; 0. |]))

let test_dist_entropy () =
  check_float "uniform entropy" (log 2.) (Dist.entropy (Dist.uniform 2));
  check_float "deterministic entropy" 0.
    (Dist.entropy (Dist.of_weights [| 1.; 0. |]))

let test_bernoulli () =
  let bv = Dist.bernoulli_uniform ~bits:8 ~p:0.125 in
  (* Probability of the all-zero mask: (7/8)^8. *)
  check_float "all-zero mask" (8. *. log (7. /. 8.))
    (Dist.bernoulli_log_prob bv 0);
  (* One bit set: (1/8)(7/8)^7. *)
  check_float "one bit" (log (1. /. 8.) +. (7. *. log (7. /. 8.)))
    (Dist.bernoulli_log_prob bv 1)

let test_bernoulli_estimate () =
  let bv =
    Dist.bernoulli_estimate ~alpha:0.0001 ~on_counts:[| 8.; 0.; 4.; 0.; 0.; 0.; 0.; 0. |]
      ~total:8. ()
  in
  check_bool "bit0 ~1" true (Dist.bernoulli_prob_on bv 0 > 0.99);
  check_bool "bit2 ~0.5" true
    (Float.abs (Dist.bernoulli_prob_on bv 2 -. 0.5) < 0.01);
  check_bool "bit1 ~0" true (Dist.bernoulli_prob_on bv 1 < 0.01)

(* ------------------------------ Fhmm ------------------------------ *)

(* A lattice as these tests describe it, by closures over encoded states;
   [kernel] lays it out as the flat structure and weights of {!Fhmm}. *)
type lattice = {
  length : int;
  states : int -> int array;
  preds : int -> int -> int array;
  init : int -> float;
  trans : int -> int -> int -> float;
  emit : int -> int -> float;
}

let structure (lattice : lattice) =
  let states = Array.init lattice.length lattice.states in
  let preds =
    Array.mapi
      (fun i sa ->
        if i = 0 then [||] else Array.init (Array.length sa) (lattice.preds i))
      states
  in
  { Fhmm.states; preds }

(* Writes the lattice's weights into a kernel made for its structure. *)
let fill kernel (lattice : lattice) =
  let { Fhmm.states; preds } = structure lattice in
  let weights = Fhmm.weights kernel in
  if lattice.length > 0 then
    Array.iteri
      (fun s state -> weights.Fhmm.init.(s) <- lattice.init state)
      states.(0);
  Array.iteri
    (fun i sa ->
      Array.iteri
        (fun s state -> weights.Fhmm.emit.(i).(s) <- lattice.emit i state)
        sa)
    states;
  for i = 1 to lattice.length - 1 do
    let e = ref 0 in
    Array.iteri
      (fun s state ->
        Array.iter
          (fun p ->
            weights.Fhmm.trans.(i).(!e) <-
              lattice.trans i states.(i - 1).(p) state;
            incr e)
          preds.(i).(s))
      states.(i)
  done

let kernel lattice =
  let kernel = Fhmm.create (structure lattice) in
  fill kernel lattice;
  kernel

let viterbi lattice = Fhmm.viterbi (kernel lattice)

type posteriors = {
  log_likelihood : float;
  gamma : float array array;
  xi : (int * int * float) list array;
      (* [xi.(i)] for [i >= 1]: the cells [(prev_index, cur_index, p)] with
         [p > 1e-12], the last edge first *)
}

(* The kernel's posteriors, with each position's xi gathered into cells. *)
let posteriors kernel lattice =
  match Fhmm.forward_backward kernel with
  | None -> None
  | Some log_likelihood ->
    let gamma = Array.map Array.copy (Fhmm.gamma kernel) in
    let xi =
      Array.init lattice.length (fun i ->
          if i = 0 then []
          else begin
            let probabilities = Fhmm.xi kernel i in
            let cells = ref [] and e = ref 0 in
            Array.iteri
              (fun s _ ->
                Array.iter
                  (fun p ->
                    let probability = probabilities.(!e) in
                    if probability > 1e-12 then
                      cells := (p, s, probability) :: !cells;
                    incr e)
                  (lattice.preds i s))
              (lattice.states i);
            !cells
          end)
    in
    Some { log_likelihood; gamma; xi }

let forward_backward lattice = posteriors (kernel lattice) lattice

(* Log joint probability of a concrete state path (encoded states). *)
let path_log_prob lattice path =
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

(* [preds] listing every state at the position before: the dense pattern,
   right for any lattice. *)
let dense_preds states i _ = Array.init (Array.length (states (i - 1))) Fun.id

(* A tiny two-state weather HMM with known Viterbi answer. States:
   0 = rainy, 1 = sunny. *)
let weather_lattice observations =
  let trans =
    [| [| 0.7; 0.3 |]; [| 0.4; 0.6 |] |]
  in
  (* Emissions: observation 0 (walk), 1 (shop), 2 (clean). *)
  let emit_table = [| [| 0.1; 0.4; 0.5 |]; [| 0.6; 0.3; 0.1 |] |] in
  let states _ = [| 0; 1 |] in
  {
    length = Array.length observations;
    states;
    preds = dense_preds states;
    init = (fun s -> log (if s = 0 then 0.6 else 0.4));
    trans = (fun _ prev cur -> log trans.(prev).(cur));
    emit = (fun i s -> log emit_table.(s).(observations.(i)));
  }

let test_viterbi_weather () =
  (* Classic example: observations walk, shop, clean -> sunny, rainy,
     rainy. *)
  match viterbi (weather_lattice [| 0; 1; 2 |]) with
  | Some path ->
    Alcotest.(check (array int)) "path" [| 1; 0; 0 |] path
  | None -> Alcotest.fail "expected a path"

let test_forward_backward_normalized () =
  match forward_backward (weather_lattice [| 0; 1; 2; 0; 2 |]) with
  | None -> Alcotest.fail "expected posteriors"
  | Some posteriors ->
    Array.iter
      (fun gamma_row ->
        let total = Array.fold_left ( +. ) 0. gamma_row in
        check_bool "gamma sums to 1" true (Float.abs (total -. 1.) < 1e-9))
      posteriors.gamma;
    Array.iteri
      (fun i cells ->
        if i >= 1 then begin
          let total = List.fold_left (fun acc (_, _, p) -> acc +. p) 0. cells in
          check_bool "xi sums to 1" true (Float.abs (total -. 1.) < 1e-9)
        end)
      posteriors.xi

let test_forward_backward_likelihood_brute_force () =
  let observations = [| 0; 2; 1 |] in
  let lattice = weather_lattice observations in
  (* Enumerate all 2^3 paths and sum their joint probabilities. *)
  let total = ref 0. in
  for a = 0 to 1 do
    for b = 0 to 1 do
      for c = 0 to 1 do
        total :=
          !total +. exp (path_log_prob lattice [| a; b; c |])
      done
    done
  done;
  match forward_backward lattice with
  | Some posteriors ->
    check_bool "log-likelihood matches brute force" true
      (Float.abs (posteriors.log_likelihood -. log !total) < 1e-9)
  | None -> Alcotest.fail "expected posteriors"

let test_viterbi_beats_other_paths () =
  let observations = [| 0; 1; 2; 2 |] in
  let lattice = weather_lattice observations in
  match viterbi lattice with
  | None -> Alcotest.fail "expected a path"
  | Some best ->
    let best_score = path_log_prob lattice best in
    for mask = 0 to 15 do
      let path = Array.init 4 (fun i -> (mask lsr i) land 1) in
      check_bool "viterbi is maximal" true
        (path_log_prob lattice path <= best_score +. 1e-9)
    done

let test_infeasible_lattice () =
  let states _ = [| 0; 1 |] in
  let lattice =
    {
      length = 2;
      states;
      preds = dense_preds states;
      init = (fun _ -> Logspace.one);
      trans = (fun _ _ _ -> Logspace.zero);  (* no transition allowed *)
      emit = (fun _ _ -> Logspace.one);
    }
  in
  check_bool "viterbi none" true (viterbi lattice = None);
  check_bool "posteriors none" true (forward_backward lattice = None)

let test_position_dependent_states () =
  (* The admissible-state sets differ per position (as with D_i). *)
  let states i = if i = 1 then [| 5 |] else [| 3; 5 |] in
  let lattice =
    {
      length = 3;
      states;
      preds = dense_preds states;
      init = (fun _ -> log 0.5);
      trans = (fun _ _ _ -> log 0.5);
      emit = (fun _ _ -> Logspace.one);
    }
  in
  match viterbi lattice with
  | Some path -> check_int "middle state forced" 5 path.(1)
  | None -> Alcotest.fail "expected a path"

let test_single_position () =
  let states _ = [| 7; 9 |] in
  let lattice =
    {
      length = 1;
      states;
      preds = dense_preds states;
      init = (fun s -> log (if s = 9 then 0.8 else 0.2));
      trans = (fun _ _ _ -> Logspace.zero);
      emit = (fun _ _ -> Logspace.one);
    }
  in
  match viterbi lattice with
  | Some path -> check_int "most likely initial state" 9 path.(0)
  | None -> Alcotest.fail "expected a path"

(* The dense loops: every pair of states at adjacent positions, ignoring
   [preds]. The reference the kernel's sparse passes must match bit for
   bit. *)
module Dense = struct
  let state_table (lattice : lattice) =
    Array.init lattice.length (fun i -> lattice.states i)

  let viterbi (lattice : lattice) =
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
        Array.iteri
          (fun s state ->
            let emit = lattice.emit i state in
            if not (Logspace.is_zero emit) then
              Array.iteri
                (fun p prev_state ->
                  let prev_score = score.(i - 1).(p) in
                  if not (Logspace.is_zero prev_score) then begin
                    let candidate =
                      Logspace.mul prev_score
                        (Logspace.mul (lattice.trans i prev_state state) emit)
                    in
                    if candidate > score.(i).(s) then begin
                      score.(i).(s) <- candidate;
                      back.(i).(s) <- p
                    end
                  end)
                states.(i - 1))
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

  let forward_backward (lattice : lattice) =
    if lattice.length = 0 then
      Some { log_likelihood = 0.; gamma = [||]; xi = [||] }
    else begin
      let states = state_table lattice in
      let alpha = Array.map (fun sa -> Array.make (Array.length sa) Logspace.zero) states in
      let beta = Array.map (fun sa -> Array.make (Array.length sa) Logspace.zero) states in
      Array.iteri
        (fun s state ->
          alpha.(0).(s) <- Logspace.mul (lattice.init state) (lattice.emit 0 state))
        states.(0);
      for i = 1 to lattice.length - 1 do
        Array.iteri
          (fun s state ->
            let emit = lattice.emit i state in
            if not (Logspace.is_zero emit) then begin
              let incoming =
                Array.mapi
                  (fun p prev_state ->
                    Logspace.mul alpha.(i - 1).(p)
                      (lattice.trans i prev_state state))
                  states.(i - 1)
              in
              alpha.(i).(s) <- Logspace.mul (Logspace.sum incoming) emit
            end)
          states.(i)
      done;
      let last = lattice.length - 1 in
      let log_likelihood = Logspace.sum alpha.(last) in
      if Logspace.is_zero log_likelihood then None
      else begin
        Array.iteri (fun s _ -> beta.(last).(s) <- Logspace.one) states.(last);
        for i = last - 1 downto 0 do
          Array.iteri
            (fun s state ->
              let outgoing =
                Array.mapi
                  (fun q next_state ->
                    Logspace.mul
                      (lattice.trans (i + 1) state next_state)
                      (Logspace.mul (lattice.emit (i + 1) next_state)
                         beta.(i + 1).(q)))
                  states.(i + 1)
              in
              beta.(i).(s) <- Logspace.sum outgoing)
            states.(i)
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
          let cells = ref [] in
          Array.iteri
            (fun s state ->
              let emit = lattice.emit i state in
              if not (Logspace.is_zero emit) then
                Array.iteri
                  (fun p prev_state ->
                    let value =
                      Logspace.mul alpha.(i - 1).(p)
                        (Logspace.mul (lattice.trans i prev_state state)
                           (Logspace.mul emit beta.(i).(s)))
                      -. log_likelihood
                    in
                    let probability = Logspace.to_prob value in
                    if probability > 1e-12 then
                      cells := (p, s, probability) :: !cells)
                  states.(i - 1))
            states.(i);
          xi.(i) <- !cells
        done;
        Some { log_likelihood; gamma; xi }
      end
    end
end

(* A random lattice: 1-8 positions of 1-6 states each, and structural
   zeros in [init], [trans] and [emit]. Half the lattices draw their other
   probabilities from {1/2, 1}, so that Viterbi meets ties, the rest at
   random. State [s] at position [i] is encoded as [100 * i + s]. [preds]
   lists either the exact non-zero pattern of [trans] or every index. *)
let random_lattice =
  let open QCheck.Gen in
  let gen =
    let* round = bool in
    let log_prob =
      frequency
        [
          (1, return Logspace.zero);
          ( 3,
            if round then oneofl [ log 0.5; Logspace.one ]
            else map log (float_range 0.001 1.0) );
        ]
    in
    let* length = int_range 1 8 in
    let* sizes = array_repeat length (int_range 1 6) in
    let* init = array_repeat sizes.(0) log_prob in
    let* trans =
      flatten_a
        (Array.init length (fun i ->
             let prev = if i = 0 then 0 else sizes.(i - 1) in
             array_repeat prev (array_repeat sizes.(i) log_prob)))
    in
    let* emit = flatten_a (Array.map (fun n -> array_repeat n log_prob) sizes) in
    let* exact = bool in
    return (sizes, init, trans, emit, exact)
  in
  let print (sizes, _, _, _, exact) =
    Printf.sprintf "sizes [%s], %s preds"
      (String.concat ";" (Array.to_list (Array.map string_of_int sizes)))
      (if exact then "exact" else "dense")
  in
  QCheck.make ~print gen

let lattice_of (sizes, init, trans, emit, exact) =
  let states i = Array.init sizes.(i) (fun s -> (100 * i) + s) in
  let preds i s =
    if exact then
      List.filter
        (fun p -> not (Logspace.is_zero trans.(i).(p).(s)))
        (List.init sizes.(i - 1) Fun.id)
      |> Array.of_list
    else dense_preds states i s
  in
  {
    length = Array.length sizes;
    states;
    preds;
    init = (fun state -> init.(state mod 100));
    trans = (fun i prev cur -> trans.(i).(prev mod 100).(cur mod 100));
    emit = (fun i state -> emit.(i).(state mod 100));
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_posteriors a b =
  same_bits a.log_likelihood b.log_likelihood
  && Array.for_all2 (Array.for_all2 same_bits) a.gamma b.gamma
  && Array.for_all2
       (fun xs ys ->
         List.length xs = List.length ys
         && List.for_all2
              (fun (p, s, x) (q, t, y) -> p = q && s = t && same_bits x y)
              xs ys)
       a.xi b.xi

(* One kernel serves every pass, as in EM, and its weights are rewritten
   in place. Before each check its buffers hold the passes over other
   weights (every one log 1), so a pass that reads what an earlier one
   left in them, instead of writing it, answers differently. *)
let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse passes equal the dense loops bit for bit"
    ~count:1000 random_lattice (fun spec ->
      let lattice = lattice_of spec in
      let kernel = Fhmm.create (structure lattice) in
      let reuse () =
        fill kernel
          {
            lattice with
            init = (fun _ -> Logspace.one);
            trans = (fun _ _ _ -> Logspace.one);
            emit = (fun _ _ -> Logspace.one);
          };
        ignore (Fhmm.viterbi kernel);
        ignore (Fhmm.forward_backward kernel);
        fill kernel lattice
      in
      let dense = Dense.forward_backward lattice in
      let matches = function
        | None -> dense = None
        | Some a -> (
          match dense with Some b -> same_posteriors a b | None -> false)
      in
      reuse ();
      matches (posteriors kernel lattice)
      && matches (posteriors kernel lattice)
      && (reuse ();
          Fhmm.viterbi kernel = Dense.viterbi lattice))

(* ---------------------------- Allocation ---------------------------- *)

(* The observation table of each of the 24 Table 4 list pages. *)
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

(* The HMM path's allocation under the Period model. The kernel's
   structure, weights and buffers are allocated once per page and its
   passes allocate nothing per edge, so the 24 pages cost ~5.0M minor
   words; a closure call per edge and xi built as a list cost 77.9M.
   [Gc.minor_words] repeats exactly from run to run, so the bound holds on
   any host. *)
let test_solve_allocation () =
  let observations = table4_observations () in
  let before = Gc.minor_words () in
  List.iter
    (fun observation ->
      ignore
        (Sys.opaque_identity
           (Tabseg.Prob_segmenter.solve_observation observation)))
    observations;
  let words = Gc.minor_words () -. before in
  if words > 10e6 then
    Alcotest.failf "solving Table 4 allocates %.1fM minor words (bound 10M)"
      (words /. 1e6)

let () =
  Alcotest.run "tabseg_hmm"
    [
      ( "logspace",
        [
          Alcotest.test_case "add" `Quick test_logspace_add;
          Alcotest.test_case "sum" `Quick test_logspace_sum;
          Alcotest.test_case "mul" `Quick test_logspace_mul;
          Alcotest.test_case "normalize" `Quick test_logspace_normalize;
          Alcotest.test_case "of_prob" `Quick test_logspace_of_prob;
          QCheck_alcotest.to_alcotest prop_logsumexp_stable;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_dist_uniform;
          Alcotest.test_case "estimate" `Quick test_dist_estimate;
          Alcotest.test_case "smoothing" `Quick test_dist_smoothing_avoids_zero;
          Alcotest.test_case "bad weights" `Quick test_dist_rejects_bad_weights;
          Alcotest.test_case "entropy" `Quick test_dist_entropy;
          Alcotest.test_case "bernoulli vector" `Quick test_bernoulli;
          Alcotest.test_case "bernoulli estimate" `Quick
            test_bernoulli_estimate;
        ] );
      ( "fhmm",
        [
          Alcotest.test_case "viterbi weather" `Quick test_viterbi_weather;
          Alcotest.test_case "posteriors normalized" `Quick
            test_forward_backward_normalized;
          Alcotest.test_case "likelihood vs brute force" `Quick
            test_forward_backward_likelihood_brute_force;
          Alcotest.test_case "viterbi maximal" `Quick
            test_viterbi_beats_other_paths;
          Alcotest.test_case "infeasible lattice" `Quick
            test_infeasible_lattice;
          Alcotest.test_case "position dependent states" `Quick
            test_position_dependent_states;
          Alcotest.test_case "single position" `Quick test_single_position;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
        ] );
      (* Alcotest pads every test name to the longest group name and cuts
         it to fit the line, so a group name longer than "logspace" would
         change how the other tests' names print. *)
      ( "alloc",
        [
          Alcotest.test_case "Table 4 solve: at most 10M minor words" `Quick
            test_solve_allocation;
        ] );
    ]
