(** Shortest paths under non-negative edge weights.

    Weights are supplied as a function over edge ids; an [infinity]
    weight removes the edge (used for residual-capacity pruning).
    [dijkstra] is the production algorithm; [bellman_ford] is a simple
    reference implementation kept as a test oracle. *)

type spt = {
  source : int;
  dist : float array;          (** [dist.(v)] = cost, [infinity] if unreachable *)
  parent_edge : int array;     (** edge into [v] on a shortest path, [-1] at source/unreachable *)
  parent : int array;          (** predecessor node, [-1] at source/unreachable *)
}
(** A single-source shortest-path tree. *)

val dijkstra : Graph.t -> weight:(int -> float) -> source:int -> spt
(** Raises [Invalid_argument] if a traversed edge has negative weight. *)

val bellman_ford : Graph.t -> weight:(int -> float) -> source:int -> spt
(** Reference oracle; O(n·m). Requires non-negative weights (undirected
    graphs cannot carry negative edges without negative cycles). *)

val path_edges : Graph.t -> spt -> int -> int list option
(** Edge ids of the tree path from the source to a node, in travel
    order; [None] if unreachable, [Some []] for the source itself. *)

val path_edges_onto : spt -> int -> int list -> int list
(** [path_edges_onto spt target acc] is the same path prepended onto
    [acc], without an intermediate list. Raises [Invalid_argument] if
    [target] is unreachable. *)

val path_nodes : Graph.t -> spt -> int -> int list option
(** Nodes of the same path, starting with the source. *)

val path_cost : weight:(int -> float) -> int list -> float
(** Total weight of an edge-id list. *)

type apsp = {
  d : float array array;        (** [d.(u).(v)] = shortest-path cost *)
  pe : int array array;         (** [pe.(u).(v)] = edge into [v] on a shortest [u → v] path, [-1] if none *)
  pn : int array array;         (** [pn.(u).(v)] = predecessor of [v] on that path *)
}
(** All-pairs shortest paths with path reconstruction, computed by one
    Dijkstra per node: O(n·m·log n) time, O(n²) space. *)

val all_pairs : Graph.t -> weight:(int -> float) -> apsp

val apsp_dist : apsp -> int -> int -> float

val apsp_path : apsp -> int -> int -> int list option
(** Edge ids of a shortest [u → v] path in travel order. *)
