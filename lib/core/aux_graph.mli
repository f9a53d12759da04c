(** The auxiliary undirected graph [G_k^i] of Algorithm 1 (§IV-B).

    For a request [r_k] the extended graph adds a virtual source [s'_k]
    and one virtual edge [(s'_k, v)] per candidate server [v], weighted
    [b_k·d_G(s_k, v) + c_v(SC_k)]; base edges cost [b_k·c_e]. The paper
    also zeroes the edges [(s_k, v)] for [v] in the chosen server
    combination; this module does not (DESIGN.md §3 gives the reason).

    Instead of materialising one graph per server combination and
    re-running Dijkstra (the naive [O(|V_S|^K)] Dijkstra blow-up), the
    module evaluates each combination's metric exactly through a {e hub
    decomposition}: every virtual edge is incident to [s'_k], so any
    shortest path is base legs stitched at the hubs
    [{s_k, s'_k} ∪ subset]. A small Floyd–Warshall over the hubs yields
    exact distances and reconstructible paths. Base-graph legs come from
    a lazy {!Mcgraph.Sp_engine}: one Dijkstra tree per queried source
    (the request source, candidate servers, destinations). Each tree is
    read from the engine once per [t] and then served from its arrays to
    every combination (DESIGN.md §17), so a [t] describes the network as
    it was when the trees were first read and serves one request at one
    weight epoch. Tests check the metric against Dijkstra on a
    materialised auxiliary graph and, bit for bit, against the former
    unfactored implementation. *)

type t

val build :
  ?keep:(int -> bool) ->
  ?edge_weight:(int -> float) ->
  ?placement_cost:(int -> float) ->
  ?engine:(weight:(int -> float) -> Mcgraph.Sp_engine.t) ->
  net:Sdn.Network.t ->
  request:Sdn.Request.t ->
  candidate_servers:int list ->
  unit ->
  t
(** [keep] filters usable base edges (capacity pruning); default keeps
    all. [edge_weight] prices a base edge (default [b_k·c_e] — override
    with exponential weights for online use); [placement_cost] prices a
    server (default [c_v(SC_k)]). [candidate_servers] are the servers
    considered for hosting the chain (already filtered for computing
    capacity by the caller). [engine] lets the caller supply the
    shortest-path engine for the pruned base weights instead of a
    private one — used to share a window-scoped engine across requests;
    the supplied engine must answer exactly as a fresh engine over
    [weight] would (the {!Sp_window} contract). *)

val ext_graph : t -> Mcgraph.Graph.t
(** Base graph plus virtual node and virtual edges; base edge ids are
    preserved. *)

val virtual_node : t -> int

val base_edge_count : t -> int
(** Edges with id below this bound are base edges. *)

val is_virtual_edge : t -> int -> bool

val server_of_virtual_edge : t -> int -> int

val virtual_edge_of_server : t -> int -> int option

val virtual_edge_weight : t -> int -> float
(** [b_k·d(s_k, v) + c_v(SC_k)] for a candidate server; [infinity] when
    the server is unreachable from the source. *)

val reachable_servers : t -> int list
(** Candidate servers with finite virtual-edge weight. *)

val base_dist : t -> int -> int -> float
(** Shortest-path distance in the (pruned) base graph, in units of
    [b_k·c_e]. The first query from a source reads its tree from the
    engine (one Dijkstra unless the engine holds it); later queries from
    it read the kept arrays. *)

val base_path : t -> int -> int -> int list option

val engine : t -> Mcgraph.Sp_engine.t
(** The underlying per-source engine over the pruned base graph — epoch-
    bound to the network, exposed for instrumentation and tests. [t]
    reads each source's tree from it once. *)

type subset_metric
(** The exact metric of [G_k^i] for one server combination. *)

val subset_metric : t -> int list -> subset_metric
(** Raises [Invalid_argument] if the subset contains a non-candidate. *)

val weight : subset_metric -> int -> float
(** Per-edge weight of the auxiliary graph under this combination:
    [b_k·c_e] for a kept base edge, the virtual-edge weight for a server
    of the combination, [infinity] for pruned base edges and other
    servers' virtual edges. *)

val dist : subset_metric -> int -> int -> float
(** Exact shortest-path distance in [G_k^i] between any two extended
    nodes (the virtual node included). Staged: [dist sm x] does the work
    that depends on [x] alone, and the closure it returns answers each
    [y] in O(K). *)

val path : subset_metric -> int -> int -> int list option
(** Edge ids realising [dist], in travel order. *)

val steiner_tree : subset_metric -> int list option
(** KMB Steiner tree spanning [{s'_k} ∪ D_k] in [G_k^i]; [None] when a
    terminal is unreachable. *)

val tree_cost : subset_metric -> int list -> float
(** Cost of an edge set under this combination's weights. *)

val to_pseudo_tree : t -> int list -> Pseudo_tree.t
(** Map an auxiliary Steiner tree (rooted at the virtual source) back to
    a pseudo-multicast tree of the SDN: virtual edges expand into
    shortest source → server paths, witnesses are read off the tree.
    Raises [Invalid_argument] if the edge set is not a tree rooted at
    the virtual source spanning all destinations. *)

val materialize : t -> subset:int list -> Mcgraph.Graph.t * (int -> float)
(** A concrete copy of [G_k^i] with its weight function — used by tests
    to validate [dist] against a plain Dijkstra. *)
