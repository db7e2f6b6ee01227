"""The repository benchmark for the osprey_ray engine (see README.md)."""
