(** Algorithm 1, [Appro_Multi]: the 2K-approximation for the NFV-enabled
    multicasting problem (§IV), and its capacity-constrained variant
    [Appro_Multi_Cap] (§IV-C).

    For every combination of at most [K] candidate servers the algorithm
    builds the auxiliary graph [G_k^i] (see {!Aux_graph}), finds a KMB
    Steiner tree spanning the virtual source and all destinations, and
    keeps the cheapest tree over all combinations, mapped back to a
    pseudo-multicast tree of the SDN. *)

type result = {
  tree : Pseudo_tree.t;
  subset : int list;     (** the winning server combination *)
  aux_cost : float;      (** tree cost in the auxiliary graph — the
                             objective Algorithm 1 minimises (no edge is
                             zeroed, DESIGN.md §3) *)
  cost : float;          (** honest linear implementation cost of the
                             pseudo-multicast tree (every traversal and
                             every placement charged); [aux_cost] up to
                             the order of the float sums *)
  combinations : int;    (** size of the explored search space: the
                             number of non-empty server subsets of size
                             ≤ [K] drawn from the reachable candidate
                             servers, whether or not they yielded a
                             feasible tree. [solve_with] and [admit]
                             report the same quantity. *)
}

val solve :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t ->
  (result, string) Stdlib.result
(** Uncapacitated [Appro_Multi] with at most [k] (default 3, as in the
    paper's evaluation) servers per request. [?window] shares the base
    shortest-path engine across requests of equal bandwidth (the default
    weights are [b_k·c_e], so the bandwidth keys the engine family)
    through an epoch-free {!Sp_window.static_engine} — results are
    identical to the default private engine. Only the winning candidate
    is kept (a running minimum under {!candidates}' order); nothing is
    sorted. *)

val price :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t -> float
(** The static admission price of a request: the [cost] of
    [solve ?k ?window net r], or [infinity] when no tree exists. The
    backlog and batch orderings that rank requests by price
    ([Restore]'s [Knapsack Priced], [Batch]'s [Cheapest_first]) go
    through this function.

    {b Purity.} The uncapacitated solve reads only static inputs:
    [b·c_e], [chain_cost] and the full server list. It reads no
    residual, so the price of a request is a pure function of
    [(net's static inputs, r, k)] and cannot move under allocate,
    release or fault confiscation. That is what makes the memo exact:
    through a [window] the first call for [(r.id, k)] solves and
    stores the price in the window ({!Sp_window.store_price}); later
    calls with a structurally equal request return it without solving
    and count under the [appro_multi.price_hits] counter. Without a
    window every call solves — the slow reference the memo is tested
    against. Raises [Invalid_argument] if [window] is over another
    network. *)

val solve_capacitated :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t ->
  (result, string) Stdlib.result
(** [Appro_Multi_Cap]: links without residual bandwidth [b_k] and servers
    without residual computing [C(SC_k)] are pruned before running
    Algorithm 1. Does not allocate. [?window] as in {!solve}, with the
    capacity pruning folded into the engine key. *)

val admit :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t ->
  (result, string) Stdlib.result
(** [solve_capacitated] followed by an atomic allocation of the winning
    tree's resources. Candidate combinations are tried in cost order
    until one fits (a tree may need [2·b_k] on an edge it traverses
    twice, which pruning alone does not guarantee). *)

val candidates :
  ?k:int ->
  ?edge_weight:(int -> float) ->
  ?placement_cost:(int -> float) ->
  keep:(int -> bool) ->
  usable_servers:int list ->
  Sdn.Network.t ->
  Sdn.Request.t ->
  (float * int list * Aux_graph.t * int list) list
(** All feasible [(aux_cost, subset, aux, tree_edges)] candidates in
    increasing cost order — exposed for the online multi-server variant,
    ablations and tests. Custom prices ([edge_weight], [placement_cost])
    replace the default linear [b_k·c_e] / [c_v(SC_k)] objective. *)
