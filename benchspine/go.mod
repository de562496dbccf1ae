// The benchmark is a module of its own so that it builds, vets and
// tests apart from the root module (`go build ./...` there skips it).
// Its path sits under sicost/ so it may import sicost/internal/...,
// which it times from outside.
module sicost/benchspine

go 1.22

require sicost v0.0.0

replace sicost => ../
