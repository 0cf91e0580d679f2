"""Integer convex geometry: hulls, lattice points, and normal fans.

Run as a script. Walks through the three polytopes that anchor the rest of
the package: a dilated simplex, a cube, and the octahedron whose normal fan
is the standard example of a non-simplicial one.
"""

from qfact import convex_hull, is_simplicial, lattice_points, normal_fan

simplex = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
print("dilated simplex 4*D3")
print("  vertices:", simplex.vertices)
for f in simplex.facets:
    print(f"  facet: <m, {f.normal}> >= {-f.offset}")
print("  lattice points:", len(lattice_points(simplex)))

# the hull is determined by any generating set: vertices, lattice points,
# or anything in between
assert convex_hull(lattice_points(simplex)) == simplex

cube = convex_hull([(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)])
print("\ncube [0,2]^3")
print("  facets:", len(cube.facets), "vertices:", len(cube.vertices))
print("  lattice points:", len(lattice_points(cube)))

octahedron = convex_hull(
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
)
print("\noctahedron conv{+-e1, +-e2, +-e3}")
print("  facets:", len(octahedron.facets), "vertices:", len(octahedron.vertices))

# the normal fan collects the facet normals as rays; each vertex spans a
# maximal cone from the rays of the facets through it
for P, name in ((simplex, "simplex"), (cube, "cube"), (octahedron, "octahedron")):
    fan = normal_fan(P)
    sizes = sorted({len(c) for c in fan.maximal_cones})
    print(
        f"  {name}: {len(fan.rays)} rays, cone sizes {sizes}, "
        f"simplicial: {is_simplicial(fan)}"
    )

# at a cube vertex the three facet normals are independent; at an
# octahedron vertex four facets meet, so the fan fails to be simplicial
