(* Window-scoped shortest-path engine cache. See sp_window.mli for the
   exactness contract; the short version: an engine may be shared by two
   admits iff their weight functions are extensionally equal, and within
   one weight epoch that equality is decidable from a cheap key — the
   caller-chosen family string plus the bandwidth's feasibility bucket
   (two bandwidths prune the same saturated-link set iff the same number
   of residuals lies below them, because the pruned sets are nested).
   Static families (weights that read no residual) bypass the epoch
   altogether, and the window also carries the static price memo. *)

module Sp = Mcgraph.Sp_engine
module Obs = Nfv_obs.Obs

let c_creates = Obs.Counter.make "sp_window.engine_creates"
let c_reuses = Obs.Counter.make "sp_window.engine_reuses"

type stats = { engines : int; acquisitions : int; reuses : int }

type t = {
  net : Sdn.Network.t;
  engines : (string * int, Sp.t) Hashtbl.t;
  statics : (string, Sp.t) Hashtbl.t;  (* epoch-free, keyed by family *)
  prices : (int * int, Sdn.Request.t * float) Hashtbl.t;
      (* (request id, k) -> the request priced and its price *)
  mutable residuals_epoch : int;      (* epoch [sorted_residuals] is valid at *)
  mutable sorted_residuals : float array;
  mutable acquisitions : int;
  mutable reuses : int;
}

let create net =
  {
    net;
    engines = Hashtbl.create 8;
    statics = Hashtbl.create 8;
    prices = Hashtbl.create 64;
    residuals_epoch = min_int;
    sorted_residuals = [||];
    acquisitions = 0;
    reuses = 0;
  }

let net t = t.net

(* The bucket of bandwidth [b] is |{e : not (link_admits net e b)}| under
   the current residuals. [Sdn.Network.link_admits] accepts when
   [residual >= b -. 1e-9], so a link is pruned iff its residual sorts
   strictly below [b -. 1e-9] — replicating that exact float expression
   keeps the bucket decision bit-compatible with the weight functions
   that call [link_admits]. Because the pruned sets are nested as [b]
   grows, an equal count implies an equal set. *)
let bucket t ~bandwidth =
  let epoch = Sdn.Network.weight_epoch t.net in
  if epoch <> t.residuals_epoch then begin
    let r = Array.init (Sdn.Network.m t.net) (Sdn.Network.link_residual t.net) in
    Array.sort compare r;
    t.sorted_residuals <- r;
    t.residuals_epoch <- epoch
  end;
  let r = t.sorted_residuals in
  let threshold = bandwidth -. 1e-9 in
  let lo = ref 0 and hi = ref (Array.length r) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if r.(mid) < threshold then lo := mid + 1 else hi := mid
  done;
  !lo

let acquire t tbl key ~weight ~create =
  t.acquisitions <- t.acquisitions + 1;
  match Hashtbl.find_opt tbl key with
  | Some eng ->
    (* same key: either the epoch is unchanged (closures extensionally
       equal by the caller's keying, cached trees stay valid) or it
       moved (renew sweeps before swapping the closure); a static
       engine's epoch never moves *)
    Sp.renew eng ~weight;
    t.reuses <- t.reuses + 1;
    Obs.Counter.incr c_reuses;
    eng
  | None ->
    let eng = create () in
    Hashtbl.replace tbl key eng;
    Obs.Counter.incr c_creates;
    eng

let engine t ~family ~bucket:bkt ~weight =
  acquire t t.engines (family, bkt) ~weight ~create:(fun () ->
      Sp.create (Sdn.Network.graph t.net) ~weight
        ~epoch:(fun () -> Sdn.Network.weight_epoch t.net))

(* no epoch: the caller's weight reads no residual, so allocate,
   release and fault confiscation leave every cached tree valid *)
let static_engine t ~family ~weight =
  acquire t t.statics family ~weight ~create:(fun () ->
      Sp.create (Sdn.Network.graph t.net) ~weight)

(* a hit needs the stored request structurally equal to the asked one,
   so a reused id cannot alias an earlier request's price *)
let find_price t ~k (r : Sdn.Request.t) =
  match Hashtbl.find_opt t.prices (r.Sdn.Request.id, k) with
  | Some (stored, price) when stored = r -> Some price
  | _ -> None

let store_price t ~k (r : Sdn.Request.t) price =
  Hashtbl.replace t.prices (r.Sdn.Request.id, k) (r, price)

let stats t =
  {
    engines = Hashtbl.length t.engines + Hashtbl.length t.statics;
    acquisitions = t.acquisitions;
    reuses = t.reuses;
  }
