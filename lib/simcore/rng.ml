(* The splitmix64 state lives unboxed in an 8-byte buffer: a mutable
   [int64] field would box a fresh Int64 on every draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] bits64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix64 state

let split t = of_state (mix64 (bits64 t))

let[@inline] float t =
  (* 53 significant bits, uniform in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for n << 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)
let bernoulli t ~p = float t < p

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

let normal t ~mean ~stddev =
  (* Box-Muller; we discard the second variate for simplicity. The two
     draws are sequenced explicitly: [u1] consumes the first generator
     step and [u2] the second. (A [let … and …] binding leaves the order
     unspecified; every golden CSV depends on this one.) *)
  let u1 = 1.0 -. float t in
  let u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let pareto_raw t ~scale ~shape =
  let u = 1.0 -. float t in
  scale /. (u ** (1.0 /. shape))

let pareto t ~mean ~cv =
  assert (cv > 0.0);
  let shape = 1.0 +. sqrt (1.0 +. (1.0 /. (cv *. cv))) in
  let scale = mean *. (shape -. 1.0) /. shape in
  pareto_raw t ~scale ~shape

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
