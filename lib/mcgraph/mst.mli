(** Minimum spanning trees and forests. *)

val kruskal : Graph.t -> weight:(int -> float) -> int list
(** Edge ids of a minimum spanning forest (a tree when the graph is
    connected). Edges with [infinity] weight are ignored. *)

val kruskal_subset : Graph.t -> weight:(int -> float) -> edges:int list -> int list
(** Minimum spanning forest of the subgraph induced by the given edge
    ids; used for the second MST pass of the KMB Steiner heuristic.
    Among equal weights, edges earlier in [edges] are tried first. *)

val prim : Graph.t -> weight:(int -> float) -> root:int -> int list
(** Edge ids of an MST of the component containing [root]. *)

val prim_metric : points:int array -> dist:(int -> int -> float) -> (int * int) list option
(** MST of the complete graph whose vertices are [points] and whose edge
    weights are given by the metric [dist] (applied to point values, not
    indices). Returns node pairs [(a, b)] with [a], [b] drawn from
    [points]; [None] when some point is at infinite distance from the
    rest (disconnected metric). O(|points|²). [dist a] is applied once
    per point [a] that joins the tree while points remain outside it,
    and the result reused for every [b]. *)

val weight_of : weight:(int -> float) -> int list -> float
(** Total weight of an edge-id list. *)
