type t = int

let zero = 0
let us n = n
let ms x = int_of_float (Float.round (x *. 1_000.))
let seconds x = int_of_float (Float.round (x *. 1_000_000.))
let to_us t = t
let to_ms t = float_of_int t /. 1_000.
let to_seconds t = float_of_int t /. 1_000_000.

let to_seconds_string t =
  let frac = Printf.sprintf "%06d" (t mod 1_000_000) in
  let n = ref 6 in
  while !n > 0 && frac.[!n - 1] = '0' do decr n done;
  string_of_int (t / 1_000_000) ^ if !n = 0 then "" else "." ^ String.sub frac 0 !n
let add = ( + )
let sub = ( - )
let max = Stdlib.max
let min = Stdlib.min
let compare = Int.compare

let pp fmt t =
  if t >= 1_000_000 then Format.fprintf fmt "%.3fs" (to_seconds t)
  else if t >= 1_000 then Format.fprintf fmt "%.3fms" (to_ms t)
  else Format.fprintf fmt "%dus" t
