(* Timed, checked calls into the library's public entry points.

   Op intervals exclude every check: an [observe] callback stamps the
   clock on entry, does its bookkeeping, and restarts the interval on
   exit. Callbacks nested inside a library step (Repaired, Dropped,
   Restored — the last inside the restoration pass) only record; the
   heavier checks run at the next top-level callback (Arrived, Departed,
   Fault_fired), where the network state is consistent. *)

module A = Nfv_multicast.Appro_multi
module Adm = Nfv_multicast.Admission
module Dyn = Nfv_multicast.Dynamic
module R = Nfv_multicast.Restore
module Pt = Nfv_multicast.Pseudo_tree
module N = Sdn.Network
module Fault = Sdn.Fault

(* ---- growable sample buffer -------------------------------------------- *)

module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = b.a.(i)
  let to_array b = Array.sub b.a 0 b.n
end

(* ---- restoration-pass classification ----------------------------------- *)

module Passes = struct
  (* the restoration backlog as the observe stream reveals it *)
  type t = { backlog : (int, unit) Hashtbl.t; on_depart : bool }

  let create (r : R.t) =
    { backlog = Hashtbl.create 16; on_depart = R.on_depart r }

  let top_level = function
    | Dyn.Arrived _ | Dyn.Departed _ | Dyn.Fault_fired _ -> true
    | Dyn.Repaired _ | Dyn.Dropped _ | Dyn.Restored _ -> false

  (* Feed one event; [true] when a restoration pass runs right after it:
     a heal, or (under Heal_or_depart) a releasing departure, with a
     nonempty backlog — the simulator opens no pass on an empty one. *)
  let step t (h : Dyn.happened) =
    let pending () = Hashtbl.length t.backlog > 0 in
    match h with
    | Dyn.Dropped { id } ->
      Hashtbl.replace t.backlog id ();
      false
    | Dyn.Restored { id; _ } | Dyn.Departed { id; released = false } ->
      Hashtbl.remove t.backlog id;
      false
    | Dyn.Departed { released = true; _ } -> t.on_depart && pending ()
    | Dyn.Fault_fired { event = Fault.Link_up _ | Fault.Server_up _; _ } ->
      pending ()
    | Dyn.Arrived _ | Dyn.Repaired _ | Dyn.Fault_fired _ -> false

  let backlog t = Hashtbl.length t.backlog
end

(* ---- failures ----------------------------------------------------------- *)

type failures = { mutable count : int; mutable first : string list }

let failures () = { count = 0; first = [] }

let fail f fmt =
  Printf.ksprintf
    (fun s ->
      f.count <- f.count + 1;
      if List.length f.first < 5 then f.first <- s :: f.first)
    fmt

let check_tree f ~ctx net id (tree : Pt.t) =
  if tree.Pt.request.Sdn.Request.id <> id then
    fail f "%s: tree for request %d carries request %d" ctx id
      tree.Pt.request.Sdn.Request.id;
  match Pt.validate net tree with
  | Ok () -> ()
  | Error e -> fail f "%s: request %d: invalid tree: %s" ctx id e

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

(* ---- one Appro_Multi solve --------------------------------------------- *)

type solved = Solved of float | Rejected

(* one uncapacitated solve on a read-only network; returns the result
   and its duration per [clock] *)
let solve ~clock f net (req : Sdn.Request.t) =
  let epoch = N.weight_epoch net in
  let t0 = clock () in
  let r = A.solve ~k:3 net req in
  let dt = clock () -. t0 in
  if N.weight_epoch net <> epoch then
    fail f "solve %d changed the network" req.Sdn.Request.id;
  let out =
    match r with
    | Error _ -> (Rejected, 0)
    | Ok res ->
      check_tree f ~ctx:"solve" net req.Sdn.Request.id res.A.tree;
      let k = List.length res.A.subset in
      if k < 1 || k > 3 then
        fail f "solve %d: %d servers chosen" req.Sdn.Request.id k;
      if not (close res.A.cost (Pt.cost net res.A.tree)) then
        fail f "solve %d: reported cost %g, tree costs %g" req.Sdn.Request.id
          res.A.cost (Pt.cost net res.A.tree);
      if res.A.aux_cost > res.A.cost +. 1e-6 then
        fail f "solve %d: aux cost %g above cost %g" req.Sdn.Request.id
          res.A.aux_cost res.A.cost;
      (Solved res.A.cost, res.A.combinations)
  in
  (out, dt)

(* ---- one dynamic run ------------------------------------------------------ *)

type dyn_run = {
  stats : Dyn.stats;
  timed : float;  (** seconds inside [Dynamic.run], callbacks excluded *)
  events : int;  (** top-level callbacks *)
  passes : int;  (** intervals classified as restoration passes *)
  cost_sum : float;  (** Σ cost of the trees admitted at arrival *)
}

(* What one timed op of a dynamic workload is. Timing every interval
   between top-level callbacks would mix kinds: on online_churn about
   half of them are departures of a few microseconds and half are
   admissions of 0.1 to 1 ms, so the median fell on the cliff between
   the two and jumped from run to run. *)
type op =
  | Arrivals
      (** the interval that ends at an arrival's callback, unless a
          restoration pass opened it: one admission *)
  | Passes  (** the interval a restoration pass opens: one pass *)

(* whether the interval that top-level callback [h] closes is an op,
   given whether a restoration pass opened it *)
let closes_op op ~after_pass (h : Dyn.happened) =
  match (op, h) with
  | Passes, _ -> after_pass
  | Arrivals, Dyn.Arrived _ -> not after_pass
  | Arrivals, _ -> false

(* Run one cell; the durations of the intervals [op] picks go to [ops].
   The interval from the start of the run to the first callback is never
   an op. *)
let run_dyn ~clock ~op ~ops f (c : Cells.dyn) =
  let net = c.Cells.dnet in
  let fault = Fault.create net in
  let faults =
    Dyn.make_faults ~controller:fault ~restore:(Some c.Cells.restore)
      c.Cells.timeline
  in
  let passes = Passes.create c.Cells.restore in
  (* shadow of the live sessions, and of what they hold per resource *)
  let live : (int, Pt.t) Hashtbl.t = Hashtbl.create 64 in
  let held_l = Array.make (N.m net) 0.0 and held_n = Array.make (N.n net) 0.0 in
  let hold sign tree =
    let a = Pt.allocation tree in
    List.iter (fun (e, x) -> held_l.(e) <- held_l.(e) +. (sign *. x)) a.N.links;
    List.iter (fun (v, x) -> held_n.(v) <- held_n.(v) +. (sign *. x)) a.N.nodes
  in
  let enter ctx id tree =
    if Hashtbl.mem live id then fail f "%s: request %d already live" ctx id;
    Hashtbl.replace live id tree;
    hold 1.0 tree
  in
  let leave ctx id =
    match Hashtbl.find_opt live id with
    | Some tree ->
      Hashtbl.remove live id;
      hold (-1.0) tree
    | None -> fail f "%s: request %d is not live" ctx id
  in
  (* capacity = residual + confiscated + Σ live, per link and server *)
  let conservation ctx =
    for e = 0 to N.m net - 1 do
      let used = N.link_capacity net e -. N.link_residual net e in
      let acc = Fault.confiscated_link fault e +. held_l.(e) in
      if not (close used acc) then
        fail f "%s: link %d holds %.9g, confiscated + live = %.9g" ctx e used acc
    done;
    List.iter
      (fun v ->
        let used = N.server_capacity net v -. N.server_residual net v in
        let acc = Fault.confiscated_server fault v +. held_n.(v) in
        if not (close used acc) then
          fail f "%s: server %d holds %.9g, confiscated + live = %.9g" ctx v
            used acc)
      (N.servers net)
  in
  (* nested trees, validated at the next top-level callback *)
  let unchecked = ref [] in
  let victims = ref 0 and repaired = ref 0 and dropped = ref 0 in
  let restored = ref 0 and admitted = ref 0 and cost_sum = ref 0.0 in
  let events = ref 0 and n_passes = ref 0 in
  let in_pass = ref false in
  let acc = ref 0.0 and timed = ref 0.0 and seg = ref 0.0 in
  let observe _t h =
    let t_in = clock () in
    acc := !acc +. (t_in -. !seg);
    if Passes.top_level h then begin
      if !events > 0 && closes_op op ~after_pass:!in_pass h then
        Buf.add ops !acc;
      if !in_pass then incr n_passes;
      timed := !timed +. !acc;
      acc := 0.0;
      incr events;
      List.iter (fun (id, tree) -> check_tree f ~ctx:"nested" net id tree)
        !unchecked;
      unchecked := []
    end;
    let pass_next = Passes.step passes h in
    (match h with
    | Dyn.Arrived { id; tree = Some tree } ->
      check_tree f ~ctx:"arrival" net id tree;
      incr admitted;
      cost_sum := !cost_sum +. Pt.cost net tree;
      enter "arrival" id tree
    | Dyn.Arrived { tree = None; _ } -> ()
    | Dyn.Departed { id; released = true } -> leave "departure" id
    | Dyn.Departed { id; released = false } ->
      if Hashtbl.mem live id then fail f "departure: %d live but unreleased" id
    | Dyn.Fault_fired { victims = vs; _ } ->
      victims := !victims + List.length vs;
      List.iter (leave "eviction") vs
    | Dyn.Repaired { id; tree; _ } ->
      incr repaired;
      unchecked := (id, tree) :: !unchecked;
      enter "repair" id tree
    | Dyn.Dropped _ -> incr dropped
    | Dyn.Restored { id; tree } ->
      incr restored;
      unchecked := (id, tree) :: !unchecked;
      enter "restore" id tree);
    if Passes.top_level h then begin
      conservation "event";
      in_pass := pass_next
    end;
    seg := clock ()
  in
  seg := clock ();
  let s = Dyn.run ~faults ~observe net Adm.Online_cp c.Cells.trace in
  (* the last interval runs to the return, and ends at no callback *)
  let last = !acc +. (clock () -. !seg) in
  timed := !timed +. last;
  if !in_pass then begin
    incr n_passes;
    if op = Passes then Buf.add ops last
  end;
  List.iter (fun (id, tree) -> check_tree f ~ctx:"nested" net id tree)
    !unchecked;
  conservation "end";
  let expect what got want =
    if got <> want then fail f "%s: stats %d, stream %d" what got want
  in
  expect "evicted" s.Dyn.evicted !victims;
  expect "evicted = repaired + dropped" s.Dyn.evicted
    (s.Dyn.repaired + s.Dyn.dropped);
  expect "repaired" s.Dyn.repaired !repaired;
  expect "dropped" s.Dyn.dropped !dropped;
  expect "restored" s.Dyn.restored !restored;
  expect "admitted" s.Dyn.admitted !admitted;
  expect "arrivals" s.Dyn.arrivals (s.Dyn.admitted + s.Dyn.rejected);
  expect "live at end" (Hashtbl.length live) 0;
  expect "backlog at end" (Passes.backlog passes) 0;
  {
    stats = s;
    timed = !timed;
    events = !events;
    passes = !n_passes;
    cost_sum = !cost_sum;
  }
