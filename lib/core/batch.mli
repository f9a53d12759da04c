(** Offline batch planning — an extension of the paper's single-request
    setting: when a whole batch of NFV-enabled multicast requests is
    known in advance, the admission order interacts with capacities.
    [plan] admits a batch through {!Appro_multi.admit} under a chosen
    ordering policy; the classic observation (and our measured result)
    is that smallest-first admits more requests than arrival order,
    while largest-first packs fewer. *)

type order =
  | Arrival          (** the given sequence order *)
  | Smallest_first   (** ascending bandwidth × destination count *)
  | Largest_first    (** descending footprint — an adversarial baseline *)
  | Cheapest_first   (** ascending uncapacitated Appro_Multi cost — needs
                         one extra solve per request *)

val order_to_string : order -> string

val footprint : Sdn.Request.t -> float
(** [bandwidth × terminal count] — the ordering key of
    [Smallest_first]/[Largest_first], and {!Restore}'s knapsack
    weight. *)

type result = {
  order : order;
  admitted : int;
  rejected : int;
  total_cost : float;          (** Σ linear cost of admitted trees *)
  mean_link_utilization : float;
  trees : (int * Pseudo_tree.t) list;  (** request id → admitted tree *)
}

val reorder :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t list ->
  order -> Sdn.Request.t list
(** Apply an ordering policy without admitting anything: the exact
    reordering {!plan} uses. [Cheapest_first] prices every request with
    {!Appro_multi.price} (one uncapacitated solve, which reads no
    residual; unpriceable requests go last). Through [window] each
    distinct request is solved once per window and repeat orderings
    answer from its memo; the other policies read only the requests.
    All sorts are stable, so equal keys keep their sequence order.
    Also the ordering stage of the dynamic simulator's heal-triggered
    restoration pass ({!Dynamic.run}~[faults]). *)

val plan :
  ?k:int -> ?reset:bool -> ?srlg:Online_cp.avail -> Sdn.Network.t ->
  Sdn.Request.t list -> order -> result
(** Resets the network (unless [reset:false]), reorders the batch, and
    admits greedily with [Appro_Multi_Cap]. The reset happens {e before}
    ordering, so [Cheapest_first] prices against the idle network; with
    [reset:false] ordering and admission both run against the network's
    current residuals (the caller owns that state). The whole plan —
    pricing and admission — shares one {!Sp_window} of cached
    shortest-path trees.

    [srlg] applies {!Online_cp.avail}'s spare-capacity floor to every
    admit: a request whose tree would leave some shared-risk group's
    pooled residual below [reserve × capacity] is rejected (counted
    under [avail.reserve_blocked]) and its allocation undone. The
    exposure {e surcharge} does not apply here — [Appro_Multi_Cap]
    prices with its own linear costs, not {!Online_cp.link_weight}.
    With no reserve the plan is bit-identical to one without [srlg]. *)

val compare_orders :
  ?k:int -> ?reset:bool -> ?srlg:Online_cp.avail -> Sdn.Network.t ->
  Sdn.Request.t list -> (order * result) list
(** {!plan} under every ordering policy, threading [reset] and [srlg]
    through each (they used to be silently dropped, so the comparison
    could not express the availability floor). With the default
    [reset:true] each plan starts from a fresh network; with
    [reset:false] each plan runs against the caller's residuals and its
    admitted trees are released again afterwards, so every order sees
    the same starting state and the network ends where it began (up to
    float round-off). *)
