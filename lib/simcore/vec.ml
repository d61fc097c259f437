type 'a t = {
  mutable data : 'a array;
  mutable size : int;
}

let create () = { data = [||]; size = 0 }
let length t = t.size

let grow t =
  let cap = Stdlib.max 8 (2 * Array.length t.data) in
  let data = Array.make cap t.data.(0) in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t x =
  if t.size = 0 && Array.length t.data = 0 then begin
    t.data <- Array.make 8 x;
    t.size <- 1
  end
  else begin
    if t.size = Array.length t.data then grow t;
    t.data.(t.size) <- x;
    t.size <- t.size + 1
  end

let check t i =
  if i < 0 || i >= t.size then invalid_arg (Printf.sprintf "Vec: index %d out of [0,%d)" i t.size)

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let truncate t n =
  if n < 0 || n > t.size then invalid_arg "Vec.truncate";
  t.size <- n

let last t = if t.size = 0 then None else Some t.data.(t.size - 1)

let to_list t = List.init t.size (fun i -> t.data.(i))

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.init t.size (fun i -> t.data.(i))
let copy t = { data = Array.copy t.data; size = t.size }
