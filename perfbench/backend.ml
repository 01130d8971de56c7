(* A workload's serving backend, built and preloaded identically in the
   server process and in the traced in-process run. *)

type t = {
  stores : Kvstore.Store.t array;
  router : Shard.Router.t option;
  engine : Kvserver.Engine.backend;
}

let owner t = match t.router with None -> fun _ -> 0 | Some r -> Shard.Router.shard_of r

(* Sharded tiers publish no [masstree.*] gauges of their own; sum every
   shard's tree counters under the names a single store uses, so the
   [Stats] wire request reports the whole tier. *)
let register_tree_gauges stores =
  List.iter
    (fun c ->
      Obs.Registry.gauge Obs.Registry.global
        ("masstree." ^ Masstree_core.Stats.name c)
        (fun () ->
          Array.fold_left
            (fun a s -> a + Masstree_core.Stats.read (Kvstore.Store.tree_stats s) c)
            0 stores))
    Masstree_core.Stats.all

let create (w : Spec.t) ~dir =
  let loggers =
    if w.logs then
      Array.init w.shards (fun i ->
          Persist.Logger.create (Filename.concat dir (Printf.sprintf "log-%d" i)))
    else [||]
  in
  let stores =
    Array.init w.shards (fun i ->
        if w.logs then Kvstore.Store.create ~logs:[| loggers.(i) |] ()
        else Kvstore.Store.create ())
  in
  let router =
    if w.shards > 1 then
      Some (Shard.Router.create ~concurrency:Shard.Router.Concurrent stores)
    else None
  in
  let t =
    {
      stores;
      router;
      engine =
        (match router with
        | None -> Kvserver.Engine.single stores.(0)
        | Some r -> Kvserver.Engine.sharded r);
    }
  in
  (match router with
  | None -> Array.iter (fun k -> Kvstore.Store.put ~worker:0 stores.(0) k (Spec.value k)) (Spec.population w)
  | Some r -> Array.iter (fun k -> Shard.Router.put ~worker:0 r k (Spec.value k)) (Spec.population w));
  (match router with
  | None -> Kvstore.Store.register_obs stores.(0)
  | Some r ->
      Shard.Router.register_obs r;
      register_tree_gauges stores);
  t

let close t = Array.iter Kvstore.Store.close t.stores
