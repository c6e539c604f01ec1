module Lockcheck = Tabseg_lockcheck.Lockcheck

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  cost : int;
  capacity : int;
}

(* Intrusive doubly-linked LRU list; [head] is most recent. *)
type 'v node = {
  key : string;
  value : 'v;
  node_cost : int;
  mutable prev : 'v node option;  (* towards the head / more recent *)
  mutable next : 'v node option;  (* towards the tail / less recent *)
}

type 'v shard = {
  mutex : Lockcheck.t;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable used : int;
  budget : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'v t = {
  shards : 'v shard array;
  cost : 'v -> int;
}

let create ?(shards = 8) ~capacity ~cost () =
  if shards < 1 then invalid_arg "Shard.create: need at least one shard";
  if capacity < 1 then invalid_arg "Shard.create: capacity must be positive";
  let budget = max 1 (capacity / shards) in
  {
    shards =
      Array.init shards (fun i ->
          {
            mutex =
              Lockcheck.create ~name:(Printf.sprintf "shard.%d" i) ();
            table = Hashtbl.create 64;
            head = None;
            tail = None;
            used = 0;
            budget;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
    cost;
  }

let shard_of t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)

let unlink shard node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> shard.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> shard.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front shard node =
  node.next <- shard.head;
  node.prev <- None;
  (match shard.head with
  | Some old -> old.prev <- Some node
  | None -> shard.tail <- Some node);
  shard.head <- Some node

let drop shard node =
  unlink shard node;
  Hashtbl.remove shard.table node.key;
  shard.used <- shard.used - node.node_cost

let rec evict_to_fit shard =
  if shard.used > shard.budget then begin
    match shard.tail with
    | None -> ()
    | Some lru ->
      drop shard lru;
      shard.evictions <- shard.evictions + 1;
      evict_to_fit shard
  end

let find t key =
  let shard = shard_of t key in
  Lockcheck.protect shard.mutex (fun () ->
      match Hashtbl.find_opt shard.table key with
      | None ->
        shard.misses <- shard.misses + 1;
        None
      | Some node ->
        shard.hits <- shard.hits + 1;
        unlink shard node;
        push_front shard node;
        Some node.value)

let store t key value =
  let node_cost = max 1 (t.cost value) in
  let shard = shard_of t key in
  Lockcheck.protect shard.mutex (fun () ->
      (match Hashtbl.find_opt shard.table key with
      | Some old -> drop shard old
      | None -> ());
      if node_cost <= shard.budget then begin
        let node = { key; value; node_cost; prev = None; next = None } in
        Hashtbl.replace shard.table key node;
        push_front shard node;
        shard.used <- shard.used + node_cost;
        evict_to_fit shard
      end)

let stats t =
  Array.fold_left
    (fun (acc : stats) shard ->
      Lockcheck.protect shard.mutex (fun () ->
          {
            hits = acc.hits + shard.hits;
            misses = acc.misses + shard.misses;
            evictions = acc.evictions + shard.evictions;
            entries = acc.entries + Hashtbl.length shard.table;
            cost = acc.cost + shard.used;
            capacity = acc.capacity + shard.budget;
          }))
    { hits = 0; misses = 0; evictions = 0; entries = 0; cost = 0; capacity = 0 }
    t.shards
