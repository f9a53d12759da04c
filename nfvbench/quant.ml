(* Order statistics over op latencies (nearest-rank). *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of quantile [q] in [n] samples *)
let rank n q = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let quantile_sorted a q = a.(rank (Array.length a) q - 1)

let median = function
  | [||] -> invalid_arg "Quant.median: no samples"
  | xs -> quantile_sorted (sorted xs) 0.5

type tail = {
  pct : float;  (** the percentile reported *)
  value : float;
  beyond : int;  (** samples ranked after it *)
  samples : int;
}

(* Fixed ladder, topped at 99: a faster program collects more samples
   in the same run, and a ladder that climbed with the sample count
   would report a higher percentile — a worse-looking tail — for it. *)
let ladder = [ 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest ladder percentile, at most [top], with at least
   [min_beyond] samples ranked after it; [None] when even the median has
   fewer. *)
let tail ?(top = 99.0) ?(min_beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun pct ->
      let r = rank n (pct /. 100.0) in
      if pct <= top && n > 0 && n - r >= min_beyond then
        Some { pct; value = a.(r - 1); beyond = n - r; samples = n }
      else None)
    ladder
