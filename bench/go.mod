// The benchmark is a module of its own so that it builds from bench/ alone
// and never changes what `go build ./...` or `go test ./...` at the repo
// root see. The module path sits under vodplace/, which is what lets it
// import vodplace/internal/...; the replace points at the repo root.
module vodplace/bench

go 1.22

require vodplace v0.0.0

replace vodplace => ../
