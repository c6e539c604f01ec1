open Tabseg_extract
open Tabseg_hmm

type variant = Base | Period

type decoder = Map_decoding | Posterior_decoding

type config = {
  variant : variant;
  decoder : decoder;
  em_iterations : int;
  tolerance : float;
  max_columns : int;
  gap_penalty : float;
  restart_penalty : float;
  smoothing : float;
}

let default_config =
  {
    variant = Period;
    decoder = Map_decoding;
    em_iterations = 10;
    tolerance = 1e-3;
    max_columns = 12;
    gap_penalty = log 0.1;
    restart_penalty = -25.;
    smoothing = 0.1;
  }

let base_config = { default_config with variant = Base }

type diagnostics = {
  iterations : int;
  log_likelihood : float;
  columns_bound : int;
  period_distribution : float array option;
  emission_profiles : (int * float array) list;
}

(* Shared problem data extracted from the observation table. *)
type data = {
  n : int;  (* number of constrained extracts *)
  num_records : int;
  candidates : int array array;  (* D_i as arrays *)
  type_masks : int array;  (* T_i *)
  masks : int array;  (* the distinct type masks *)
  mask_ids : int array;  (* T_i as an index into [masks] *)
  k : int;  (* column bound *)
}

let make_data config observation =
  let entries = observation.Observation.entries in
  let n = Array.length entries in
  let candidates =
    Array.map (fun e -> Array.of_list e.Observation.pages) entries
  in
  let type_masks =
    Array.map (fun e -> e.Observation.extract.Extract.types) entries
  in
  let num_records = observation.Observation.num_details in
  (* Bound on columns: the largest number of extracts observed on one
     detail page (paper Section 3.4). *)
  let per_page = Array.make (max 1 num_records) 0 in
  Array.iter
    (fun e ->
      List.iter
        (fun j -> per_page.(j) <- per_page.(j) + 1)
        e.Observation.pages)
    entries;
  let k =
    Array.fold_left max 1 per_page |> min config.max_columns |> min (max 1 n)
  in
  let distinct = Hashtbl.create 16 in
  let mask_ids =
    Array.map
      (fun mask ->
        match Hashtbl.find_opt distinct mask with
        | Some id -> id
        | None ->
          let id = Hashtbl.length distinct in
          Hashtbl.add distinct mask id;
          id)
      type_masks
  in
  let masks = Array.make (Hashtbl.length distinct) 0 in
  Hashtbl.iter (fun mask id -> masks.(id) <- mask) distinct;
  { n; num_records; candidates; type_masks; masks; mask_ids; k }

(* Index data built once per page, from which the models list each
   state's predecessors in the page's lattice structure. Both models lay
   out the states of a position in blocks, one per candidate record, in
   the order of [candidates]. *)
type index = {
  states : int array array;  (* the admissible states at each position *)
  complete : int array array;
      (* at each position, the indices of the states that can end a
         record: the predecessors of every record start one position on *)
  previous : int array array;
      (* for i >= 1, [previous.(i).(j)]: the block at i - 1 of the j-th
         candidate record at i, or -1 when it is not a candidate there *)
}

let make_index data ~states_at ~ends_record =
  let states = Array.init data.n states_at in
  let complete sa =
    let found = ref [] in
    for s = Array.length sa - 1 downto 0 do
      if ends_record sa.(s) then found := s :: !found
    done;
    Array.of_list !found
  in
  let block = Array.make data.num_records (-1) in
  let previous =
    Array.mapi
      (fun i records ->
        if i = 0 then [||]
        else begin
          let before = data.candidates.(i - 1) in
          Array.iteri (fun j r -> block.(r) <- j) before;
          let blocks = Array.map (fun r -> block.(r)) records in
          Array.iter (fun r -> block.(r) <- -1) before;
          blocks
        end)
      data.candidates
  in
  { states; complete = Array.map complete states; previous }

(* The lattice structure of a page, read by every pass of every EM
   iteration: [preds i s] lists the predecessors of the [s]-th state at
   [i], once per page. *)
let structure index preds =
  {
    Fhmm.states = index.states;
    preds =
      Array.mapi
        (fun i states ->
          if i = 0 then [||] else Array.init (Array.length states) (preds i))
        index.states;
  }

(* One field of every state, decoded once per page. *)
let field index f = Array.map (Array.map f) index.states

(* The log emission of every cell for every distinct type mask, computed
   once per EM iteration rather than at every visit of a state. *)
let emission_memo data emission =
  Array.map
    (fun cell -> Array.map (Dist.bernoulli_log_prob cell) data.masks)
    emission

(* ------------------------------------------------------------------ *)
(* Base variant: states encode (record, column label).                 *)
(* ------------------------------------------------------------------ *)

module Base_model = struct
  type t = {
    trans : Dist.categorical array;  (* row c' -> distribution over c *)
    emission : Dist.bernoulli_vector array;  (* per column *)
  }

  let encode data r c = (r * data.k) + c
  let decode data state = (state / data.k, state mod data.k)

  (* Row c' may go to column 0 (record start) or any c > c' (within
     record). *)
  let allowed_targets k c' =
    0 :: List.filter (fun c -> c > c') (List.init k (fun c -> c))

  let initial data =
    let k = data.k in
    let trans =
      Array.init k (fun c' ->
          let weights = Array.make k 0. in
          List.iter
            (fun c ->
              weights.(c) <-
                (if c = 0 then 0.3
                 else 0.7 *. (0.5 ** float_of_int (c - c' - 1))))
            (allowed_targets k c');
          Dist.of_weights weights)
    in
    let emission =
      Array.init k (fun _ -> Dist.bernoulli_uniform ~bits:8 ~p:0.125)
    in
    { trans; emission }

  let states_at data i =
    let rs = data.candidates.(i) in
    if i = 0 then Array.map (fun r -> encode data r 0) rs
    else
      Array.concat
        (Array.to_list
           (Array.map
              (fun r -> Array.init data.k (fun c -> encode data r c))
              rs))

  (* Any column can end a record. *)
  let index data =
    make_index data ~states_at:(states_at data) ~ends_record:(fun _ -> true)

  (* Column 0 starts a record and may follow any state. Column c > 0
     continues its record from a column c' < c, which at position 0 can
     only be the record's single state. *)
  let preds data index i s =
    let c = s mod data.k in
    if c = 0 then index.complete.(i - 1)
    else
      let previous = index.previous.(i).(s / data.k) in
      if previous < 0 then [||]
      else if i = 1 then [| previous |]
      else Array.init c (fun c' -> (previous * data.k) + c')

  (* Each state's record and column. *)
  type fields = { record : int array array; column : int array array }

  let fields data index =
    {
      record = field index (fun state -> state / data.k);
      column = field index (fun state -> state mod data.k);
    }

  (* Writes the model's weights into the kernel's arrays, each by the
     expression that defines it. *)
  let fill config data (structure : Fhmm.structure) fields model
      (weights : Fhmm.weights) =
    let k = data.k in
    let gap = config.gap_penalty and restart = config.restart_penalty in
    let logs =
      Array.map (fun d -> Array.init k (Dist.log_prob d)) model.trans
    in
    let emission = emission_memo data model.emission in
    let records = fields.record.(0) in
    for s = 0 to Array.length records - 1 do
      weights.init.(s) <- gap *. float_of_int records.(s)
    done;
    for i = 0 to data.n - 1 do
      let emit = weights.emit.(i) and column = fields.column.(i)
      and mask = data.mask_ids.(i) in
      for s = 0 to Array.length emit - 1 do
        emit.(s) <- emission.(column.(s)).(mask)
      done
    done;
    for i = 1 to data.n - 1 do
      let trans = weights.trans.(i) and preds = structure.preds.(i) in
      let record' = fields.record.(i - 1) and column' = fields.column.(i - 1)
      and record = fields.record.(i) and column = fields.column.(i) in
      let e = ref 0 in
      for s = 0 to Array.length preds - 1 do
        let ps = preds.(s) and r = record.(s) and c = column.(s) in
        for j = 0 to Array.length ps - 1 do
          let r' = record'.(ps.(j)) and c' = column'.(ps.(j)) in
          trans.(!e) <-
            (if r = r' && c > c' then logs.(c').(c)
             else if c = 0 then
               if r > r' then
                 logs.(c').(0) +. (gap *. float_of_int (r - r' - 1))
               else restart +. logs.(c').(0)
             else Logspace.zero);
          incr e
        done
      done
    done

  let m_step config data (structure : Fhmm.structure) fields kernel =
    let k = data.k in
    let trans_counts = Array.make_matrix k k 0. in
    let emission_on = Array.make_matrix k 8 0. in
    let emission_total = Array.make k 0. in
    let gamma = Fhmm.gamma kernel in
    for i = 0 to data.n - 1 do
      let gamma_row = gamma.(i) and column = fields.column.(i)
      and mask = data.type_masks.(i) in
      for s = 0 to Array.length gamma_row - 1 do
        let p = gamma_row.(s) and c = column.(s) in
        emission_total.(c) <- emission_total.(c) +. p;
        for bit = 0 to 7 do
          if mask land (1 lsl bit) <> 0 then
            emission_on.(c).(bit) <- emission_on.(c).(bit) +. p
        done
      done
    done;
    (* Each position's transition posteriors are added last edge first,
       cells <= 1e-12 skipped: the order of the sums the golden digests
       were recorded with. *)
    for i = 1 to data.n - 1 do
      let xi = Fhmm.xi kernel i and preds = structure.preds.(i) in
      let record' = fields.record.(i - 1) and column' = fields.column.(i - 1)
      and record = fields.record.(i) and column = fields.column.(i) in
      let e = ref (Array.length (Fhmm.weights kernel).Fhmm.trans.(i)) in
      for s = Array.length preds - 1 downto 0 do
        let ps = preds.(s) in
        for j = Array.length ps - 1 downto 0 do
          decr e;
          let p = xi.(!e) in
          if p > 1e-12 then begin
            let c' = column'.(ps.(j)) and c = column.(s) in
            let target =
              if record.(s) = record'.(ps.(j)) && c > c' then c else 0
            in
            trans_counts.(c').(target) <- trans_counts.(c').(target) +. p
          end
        done
      done
    done;
    let trans =
      Array.init k (fun c' ->
          let weights = Array.make k 0. in
          List.iter
            (fun c -> weights.(c) <- trans_counts.(c').(c) +. config.smoothing)
            (allowed_targets k c');
          Dist.of_weights weights)
    in
    let emission =
      Array.init k (fun c ->
          Dist.bernoulli_estimate ~alpha:config.smoothing
            ~on_counts:emission_on.(c) ~total:emission_total.(c) ())
    in
    { trans; emission }

  let decode_path data path =
    Array.map (fun state -> decode data state) path
end

(* ------------------------------------------------------------------ *)
(* Period variant: states encode (record, position m, record length ℓ). *)
(* ------------------------------------------------------------------ *)

module Period_model = struct
  type t = {
    period : Dist.categorical;  (* over ℓ-1 in 0..k-1 *)
    emission : Dist.bernoulli_vector array;  (* indexed (ℓ-1)*k + m *)
  }

  let encode data r m l = (((r * data.k) + m) * (data.k + 1)) + l

  let decode data state =
    let l = state mod (data.k + 1) in
    let rest = state / (data.k + 1) in
    (rest / data.k, rest mod data.k, l)

  let emission_index data m l = (((l - 1) * data.k) + m)

  let initial data =
    {
      period = Dist.uniform data.k;
      emission =
        Array.init (data.k * data.k) (fun _ ->
            Dist.bernoulli_uniform ~bits:8 ~p:0.125);
    }

  (* A record's block holds (0, ℓ) for ℓ = 1..k at position 0, and
     k(k+1)/2 states at later positions: ℓ descending, and m descending
     within each ℓ, so (m - 1, ℓ) directly follows (m, ℓ). *)
  let block_size data i = if i = 0 then data.k else data.k * (data.k + 1) / 2

  let states_at data i =
    let k = data.k in
    let rs = data.candidates.(i) in
    let per_record r =
      if i = 0 then Array.init k (fun l -> encode data r 0 (l + 1))
      else begin
        let states = ref [] in
        for l = 1 to k do
          for m = 0 to l - 1 do
            states := encode data r m l :: !states
          done
        done;
        Array.of_list !states
      end
    in
    Array.concat (Array.to_list (Array.map per_record rs))

  (* Position ℓ - 1 ends a record of length ℓ. *)
  let index data =
    make_index data ~states_at:(states_at data) ~ends_record:(fun state ->
        let _, m, l = decode data state in
        m = l - 1)

  (* A record start (m = 0) may follow any state that ends a record. Any
     other state only follows (m - 1, ℓ) of its own record. *)
  let preds data index i s =
    let _, m, l = decode data index.states.(i).(s) in
    if m = 0 then index.complete.(i - 1)
    else begin
      let size = block_size data i in
      let previous = index.previous.(i).(s / size) in
      if previous < 0 then [||]
      else if i > 1 then [| (previous * size) + (s mod size) + 1 |]
      else if m = 1 then [| (previous * data.k) + l - 1 |]
      else [||]
    end

  (* Each state's record, position m and record length ℓ. *)
  type fields = {
    record : int array array;
    position : int array array;
    length : int array array;
  }

  let fields data index =
    {
      record = field index (fun s -> let r, _, _ = decode data s in r);
      position = field index (fun s -> let _, m, _ = decode data s in m);
      length = field index (fun s -> let _, _, l = decode data s in l);
    }

  (* Writes the model's weights into the kernel's arrays, each by the
     expression that defines it. *)
  let fill config data (structure : Fhmm.structure) fields model
      (weights : Fhmm.weights) =
    let gap = config.gap_penalty and restart = config.restart_penalty in
    let period = Array.init data.k (Dist.log_prob model.period) in
    let emission = emission_memo data model.emission in
    let records = fields.record.(0) and lengths = fields.length.(0) in
    for s = 0 to Array.length records - 1 do
      weights.init.(s) <-
        (gap *. float_of_int records.(s)) +. period.(lengths.(s) - 1)
    done;
    for i = 0 to data.n - 1 do
      let emit = weights.emit.(i) and position = fields.position.(i)
      and length = fields.length.(i) and mask = data.mask_ids.(i) in
      for s = 0 to Array.length emit - 1 do
        emit.(s) <-
          emission.(emission_index data position.(s) length.(s)).(mask)
      done
    done;
    for i = 1 to data.n - 1 do
      let trans = weights.trans.(i) and preds = structure.preds.(i) in
      let record' = fields.record.(i - 1)
      and position' = fields.position.(i - 1)
      and length' = fields.length.(i - 1) in
      let record = fields.record.(i) and position = fields.position.(i)
      and length = fields.length.(i) in
      let e = ref 0 in
      for s = 0 to Array.length preds - 1 do
        let ps = preds.(s) in
        let r = record.(s) and m = position.(s) and l = length.(s) in
        for j = 0 to Array.length ps - 1 do
          let p = ps.(j) in
          let r' = record'.(p) and m' = position'.(p) and l' = length'.(p) in
          trans.(!e) <-
            (if r = r' && l = l' && m = m' + 1 && m < l then Logspace.one
             else if m = 0 && m' = l' - 1 then
               (* The previous record is complete; a new one starts. *)
               let start = period.(l - 1) in
               if r > r' then start +. (gap *. float_of_int (r - r' - 1))
               else restart +. start
             else Logspace.zero);
          incr e
        done
      done
    done

  let m_step config data (structure : Fhmm.structure) fields kernel =
    let k = data.k in
    let period_counts = Array.make k 0. in
    let cells = k * k in
    let emission_on = Array.make_matrix cells 8 0. in
    let emission_total = Array.make cells 0. in
    let gamma = Fhmm.gamma kernel in
    for i = 0 to data.n - 1 do
      let gamma_row = gamma.(i) and position = fields.position.(i)
      and length = fields.length.(i) and mask = data.type_masks.(i) in
      for s = 0 to Array.length gamma_row - 1 do
        let p = gamma_row.(s) and m = position.(s) and l = length.(s) in
        let cell = emission_index data m l in
        emission_total.(cell) <- emission_total.(cell) +. p;
        for bit = 0 to 7 do
          if mask land (1 lsl bit) <> 0 then
            emission_on.(cell).(bit) <- emission_on.(cell).(bit) +. p
        done;
        (* Record starts contribute to the period distribution. *)
        if i = 0 && m = 0 then
          period_counts.(l - 1) <- period_counts.(l - 1) +. p
      done
    done;
    (* So do the transitions into a record start, each position's added
       last edge first, cells <= 1e-12 skipped: the order of the sums the
       golden digests were recorded with. *)
    for i = 1 to data.n - 1 do
      let xi = Fhmm.xi kernel i and preds = structure.preds.(i) in
      let position = fields.position.(i) and length = fields.length.(i) in
      let e = ref (Array.length (Fhmm.weights kernel).Fhmm.trans.(i)) in
      for s = Array.length preds - 1 downto 0 do
        let n = Array.length preds.(s) in
        e := !e - n;
        if position.(s) = 0 then begin
          let l = length.(s) in
          for x = !e + n - 1 downto !e do
            let p = xi.(x) in
            if p > 1e-12 then
              period_counts.(l - 1) <- period_counts.(l - 1) +. p
          done
        end
      done
    done;
    {
      period =
        Dist.estimate ~alpha:config.smoothing ~counts:period_counts ();
      emission =
        Array.init cells (fun cell ->
            Dist.bernoulli_estimate ~alpha:config.smoothing
              ~on_counts:emission_on.(cell) ~total:emission_total.(cell) ());
    }

  let decode_path data path =
    Array.map
      (fun state ->
        let r, m, _ = decode data state in
        (r, m))
      path
end

(* ------------------------------------------------------------------ *)
(* EM driver and decoding.                                             *)
(* ------------------------------------------------------------------ *)

(* A learned-parameter summary for inspection (the contents of the
   paper's Figure 2/3 boxes after EM): the period distribution (Period
   variant only) and per-column Bernoulli type profiles. *)
type summary = {
  period_distribution : float array option;
  emission_profiles : (int * float array) list;
}

let profile_of_bernoulli bv =
  Array.init 8 (fun bit -> Dist.bernoulli_prob_on bv bit)

let run_em config data =
  let run structure fill m_step initial decode_path summarize =
    let kernel = Fhmm.create structure in
    let model = ref initial in
    let iterations = ref 0 in
    let log_likelihood = ref Logspace.zero in
    (try
       let previous = ref neg_infinity in
       for _ = 1 to config.em_iterations do
         fill !model (Fhmm.weights kernel);
         match Fhmm.forward_backward kernel with
         | None -> raise Exit
         | Some ll ->
           incr iterations;
           log_likelihood := ll;
           model := m_step kernel;
           if
             !log_likelihood -. !previous < config.tolerance
             && !previous > neg_infinity
           then raise Exit;
           previous := !log_likelihood
       done
     with Exit -> ());
    fill !model (Fhmm.weights kernel);
    let path =
      match config.decoder with
      | Map_decoding -> Fhmm.viterbi kernel
      | Posterior_decoding -> (
        (* Per-position argmax of the state posteriors: maximizes expected
           per-extract accuracy at the cost of global path consistency. *)
        match Fhmm.forward_backward kernel with
        | None -> None
        | Some _ ->
          let gamma = Fhmm.gamma kernel in
          Some
            (Array.init data.n (fun i ->
                 let best = ref 0 in
                 Array.iteri
                   (fun s p -> if p > gamma.(i).(!best) then best := s)
                   gamma.(i);
                 structure.Fhmm.states.(i).(!best))))
    in
    match path with
    | None -> None
    | Some path ->
      Some (decode_path path, !iterations, !log_likelihood, summarize !model)
  in
  match config.variant with
  | Base ->
    let index = Base_model.index data in
    let structure = structure index (Base_model.preds data index) in
    let fields = Base_model.fields data index in
    run structure
      (Base_model.fill config data structure fields)
      (Base_model.m_step config data structure fields)
      (Base_model.initial data)
      (Base_model.decode_path data)
      (fun (model : Base_model.t) ->
        {
          period_distribution = None;
          emission_profiles =
            Array.to_list
              (Array.mapi
                 (fun c bv -> (c, profile_of_bernoulli bv))
                 model.Base_model.emission);
        })
  | Period ->
    let index = Period_model.index data in
    let structure = structure index (Period_model.preds data index) in
    let fields = Period_model.fields data index in
    run structure
      (Period_model.fill config data structure fields)
      (Period_model.m_step config data structure fields)
      (Period_model.initial data)
      (Period_model.decode_path data)
      (fun (model : Period_model.t) ->
        {
          period_distribution =
            Some
              (Array.init data.k (fun l ->
                   Dist.prob model.Period_model.period l));
          emission_profiles =
            (* Summarize the dominant record length's positions. *)
            (let best_length =
               let best = ref 0 in
               for l = 1 to data.k do
                 if
                   Dist.prob model.Period_model.period (l - 1)
                   > Dist.prob model.Period_model.period !best
                 then best := l - 1
               done;
               !best + 1
             in
             List.init best_length (fun m ->
                 ( m,
                   profile_of_bernoulli
                     model.Period_model.emission.(Period_model.emission_index
                                                    data m best_length) )));
        })

let segment_observation config observation notes extras =
  let entries = observation.Observation.entries in
  let n = Array.length entries in
  if n = 0 then
    ( Segmentation.assemble ~notes ~assigned:[] ~unassigned:[] ~extras,
      { iterations = 0; log_likelihood = 0.; columns_bound = 0;
        period_distribution = None; emission_profiles = [] } )
  else if observation.Observation.num_details <= 1 then begin
    (* A single detail page: everything belongs to the one record. *)
    let assigned =
      Array.to_list entries
      |> List.mapi (fun i e -> (e.Observation.extract, 0, Some i))
    in
    ( Segmentation.assemble ~notes ~assigned ~unassigned:[] ~extras,
      { iterations = 0; log_likelihood = 0.; columns_bound = 1;
        period_distribution = None; emission_profiles = [] } )
  end
  else begin
    let data = make_data config observation in
    match run_em config data with
    | None ->
      (* No feasible path even with escape transitions; give up gracefully
         by leaving everything unassigned. *)
      let unassigned =
        Array.to_list (Array.map (fun e -> e.Observation.extract) entries)
      in
      ( Segmentation.assemble ~notes ~assigned:[] ~unassigned ~extras,
        { iterations = 0; log_likelihood = neg_infinity;
          columns_bound = data.k; period_distribution = None;
          emission_profiles = [] } )
    | Some (path, iterations, log_likelihood, summary) ->
      let assigned =
        Array.to_list
          (Array.mapi
             (fun i (r, c) -> (entries.(i).Observation.extract, r, Some c))
             path)
      in
      ( Segmentation.assemble ~notes ~assigned ~unassigned:[] ~extras,
        { iterations; log_likelihood; columns_bound = data.k;
          period_distribution = summary.period_distribution;
          emission_profiles = summary.emission_profiles } )
  end

let segment ?(config = default_config) (prepared : Pipeline.prepared) =
  Instrument.time ~stage:"segment.hmm" (fun () ->
      segment_observation config prepared.Pipeline.observation
        prepared.Pipeline.notes
        prepared.Pipeline.observation.Observation.extras)

let solve_observation ?(config = default_config) observation =
  segment_observation config observation []
    observation.Observation.extras
