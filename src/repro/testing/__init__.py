"""Test support: deterministic fault injection
(:mod:`repro.testing.faults`)."""
