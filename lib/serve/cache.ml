open Tabseg_template
module Store = Tabseg_store.Store
module Codec = Tabseg_store.Codec
module Lockcheck = Tabseg_lockcheck.Lockcheck

type config = { capacity_mb : int }

let default_config = { capacity_mb = 64 }

(* The persistent (L2) tier: a shared on-disk store behind the template
   LRU and the only home of results, plus the counters it feeds. Key
   namespaces keep templates and results apart in the one key space
   ("T:" / "R:" + content digest). *)
type persist = {
  store : Store.t;
  p_template_hits : int Atomic.t;
  p_result_hits : int Atomic.t;
  p_misses : int Atomic.t;
  counters : persist_counters option;
  compaction_mutex : Lockcheck.t;
  mutable last_compactions : int;
}

and persist_counters = {
  c_template_hits : Metrics.counter;
  c_result_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_read_bytes : Metrics.counter;
  c_write_bytes : Metrics.counter;
  c_compactions : Metrics.counter;
  c_hydration : Metrics.histogram;
}

type t = {
  templates : Template.t Shard.t;
  persist : persist option;
}

(* Approximate resident size. Exact accounting would need to walk the
   value; this estimate only has to make the capacity knob meaningful,
   not audit the heap. *)
let template_cost template = 256 + (64 * Template.size template)

let create ?(config = default_config) ?store ?metrics () =
  if config.capacity_mb < 1 then
    invalid_arg "Cache.create: capacity_mb must be positive";
  let total = config.capacity_mb * 1024 * 1024 in
  let persist =
    Option.map
      (fun store ->
        {
          store;
          p_template_hits = Atomic.make 0;
          p_result_hits = Atomic.make 0;
          p_misses = Atomic.make 0;
          counters =
            Option.map
              (fun registry ->
                {
                  c_template_hits =
                    Metrics.counter registry "store.template_hits";
                  c_result_hits = Metrics.counter registry "store.result_hits";
                  c_misses = Metrics.counter registry "store.misses";
                  c_read_bytes = Metrics.counter registry "store.read_bytes";
                  c_write_bytes = Metrics.counter registry "store.write_bytes";
                  c_compactions = Metrics.counter registry "store.compactions";
                  c_hydration =
                    Metrics.histogram registry "store.hydration_seconds";
                })
              metrics;
          compaction_mutex = Lockcheck.create ~name:"cache.compaction" ();
          last_compactions = (Store.stats store).Store.compactions;
        })
      store
  in
  { templates = Shard.create ~capacity:total ~cost:template_cost (); persist }

(* ------------------------- the persistent tier ----------------------- *)

let count_miss persist =
  Atomic.incr persist.p_misses;
  Option.iter (fun c -> Metrics.incr c.c_misses) persist.counters

let count_hit persist ~which ~bytes ~seconds =
  Atomic.incr
    (match which with
    | `Template -> persist.p_template_hits
    | `Result -> persist.p_result_hits);
  Option.iter
    (fun c ->
      Metrics.incr
        (match which with
        | `Template -> c.c_template_hits
        | `Result -> c.c_result_hits);
      Metrics.incr ~by:bytes c.c_read_bytes;
      Metrics.observe c.c_hydration seconds)
    persist.counters

(* Compactions happen inside Store.put; surface them as a monotone
   counter by folding in the delta since the last write we made. *)
let count_write persist ~bytes =
  Option.iter
    (fun c ->
      Metrics.incr ~by:bytes c.c_write_bytes;
      let compactions = (Store.stats persist.store).Store.compactions in
      let delta =
        Lockcheck.protect persist.compaction_mutex (fun () ->
            let delta = compactions - persist.last_compactions in
            if delta > 0 then persist.last_compactions <- compactions;
            delta)
      in
      if delta > 0 then Metrics.incr ~by:delta c.c_compactions)
    persist.counters

(* Read-through: consult the store and [promote] what it decodes (a
   template goes into the L1 LRU, so the next lookup is a memory hit). A
   blob that fails to decode (corrupt, version-skewed) is a miss, never
   an error. *)
let l2_find t ~prefix ~decode ~promote ~which key =
  match t.persist with
  | None -> None
  | Some persist -> (
    let started = Unix.gettimeofday () in
    match Store.get persist.store (prefix ^ key) with
    | None ->
      count_miss persist;
      None
    | Some blob -> (
      match decode blob with
      | None ->
        count_miss persist;
        None
      | Some value ->
        promote value;
        count_hit persist ~which ~bytes:(String.length blob)
          ~seconds:(Unix.gettimeofday () -. started);
        Some value))

(* Write-through: every store lands in the log (a reader's put is queued
   for the writer; a no-op when the store already holds the key). *)
let l2_store persist ~prefix key blob =
  if Store.put persist.store ~key:(prefix ^ key) blob then
    count_write persist ~bytes:(String.length blob)

let template_cache t =
  {
    Tabseg.Pipeline.find_template =
      (fun ~key ->
        match Shard.find t.templates key with
        | Some _ as hit -> hit
        | None ->
          l2_find t ~prefix:"T:" ~decode:Codec.decode_template
            ~promote:(fun template -> Shard.store t.templates key template)
            ~which:`Template key);
    store_template =
      (fun ~key template ->
        Shard.store t.templates key template;
        Option.iter
          (fun persist ->
            l2_store persist ~prefix:"T:" key (Codec.encode_template template))
          t.persist);
  }

(* MD5 of "<len>:<bytes>" for the tag, the method and each list page,
   then "|", then each detail page — built by one exact-size concat. *)
let request_key ?(tag = "") ~method_ (input : Tabseg.Pipeline.input) =
  let frame s rest = string_of_int (String.length s) :: ":" :: s :: rest in
  let frames pages rest = List.fold_right frame pages rest in
  let parts =
    frame tag
      (frame (Tabseg.Api.method_name method_)
         (frames input.Tabseg.Pipeline.list_pages
            ("|" :: frames input.Tabseg.Pipeline.detail_pages [])))
  in
  Digest.to_hex (Digest.string (String.concat "" parts))

let find_result t ~key =
  l2_find t ~prefix:"R:" ~decode:Codec.result_body ~promote:ignore
    ~which:`Result key

(* The blob's one Marshal also gives the caller the body. *)
let store_result t ~key result =
  Option.map
    (fun persist ->
      let body = Codec.encode_body result in
      l2_store persist ~prefix:"R:" key (Codec.result_blob body);
      body)
    t.persist

type persist_stats = {
  template_hits : int;
  result_hits : int;
  misses : int;
  store : Store.stats;
}

type stats = {
  templates : Shard.stats;
  persist : persist_stats option;
}

let stats (t : t) =
  {
    templates = Shard.stats t.templates;
    persist =
      Option.map
        (fun p ->
          {
            template_hits = Atomic.get p.p_template_hits;
            result_hits = Atomic.get p.p_result_hits;
            misses = Atomic.get p.p_misses;
            store = Store.stats p.store;
          })
        t.persist;
  }

let hit_rate (s : Shard.stats) =
  let consulted = s.Shard.hits + s.Shard.misses in
  if consulted = 0 then 0.
  else float_of_int s.Shard.hits /. float_of_int consulted
