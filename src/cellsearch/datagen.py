"""Synthetic marketplace generator.

Produces a deterministic world of destinations with multimodal booking
clusters, listings scattered around those clusters, and search logs whose
booked locations follow the cluster mixture. One engineered destination
has two booking clusters separated by a band that contains listings but
never receives bookings, so retrieval methods can be compared on how much
of that dead band they fetch.

Everything is driven by a single seeded generator; rerunning with the same
config yields byte-identical output files.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DataError
from .labels import RETRIEVAL_LEVEL, is_retrieval_cell
from .s2geom import GeoRect, cells_from_latlng_vec

CONTINENTS = ("EU", "AMER", "OTHER")
CONTINENT_BOXES = {
    "EU": (36.0, 62.0, -9.0, 30.0),
    "AMER": (-38.0, 52.0, -118.0, -46.0),
    "OTHER": (-35.0, 48.0, 66.0, 150.0),
}
COUNTRY_POOLS = {
    "EU": ("DE", "ES", "FR", "GB", "GR", "IT", "NL", "PT"),
    "AMER": ("AR", "BR", "CA", "CL", "MX", "US"),
    "OTHER": ("AU", "ID", "IN", "JP", "NZ", "TH"),
}
ALL_COUNTRIES = tuple(c for pool in COUNTRY_POOLS.values() for c in pool)
DEST_TYPES = ("address", "city", "neighborhood", "poi", "street")
DEST_TYPE_WEIGHTS = (0.08, 0.32, 0.28, 0.2, 0.12)
DEST_TYPE_DIAG_KM = {
    "address": 2.0,
    "poi": 5.0,
    "street": 8.0,
    "neighborhood": 15.0,
    "city": 40.0,
}
MAX_GUESTS = 8
MAX_CAPACITY = 10
MAX_NIGHTS = 21

KM_PER_DEG = 111.32
# Bookings pick listings within this many spreads of the cluster center;
# the engineered gap band starts beyond it, which is what guarantees the
# band receives zero bookings.
BOOKING_CUTOFF_SPREADS = 2.2

_GAP_NEAR_KM = 20.0
_GAP_FAR_KM = 44.0
_GAP_HALF_WIDTH_KM = 10.0
_GAP_CLUSTER_OFFSET_KM = 64.0
_GAP_CLUSTER_SPREAD_KM = 6.0


@dataclass(frozen=True)
class GenConfig:
    seed: int = 7
    n_destinations: int = 60
    n_listings: int = 30_000
    n_train_events: int = 200_000
    n_eval_events: int = 20_000
    outlier_rate: float = 0.02
    pan_discovery_rate: float = 0.2
    continent_mix: tuple[float, float, float] = (0.4, 0.35, 0.25)

    def __post_init__(self):
        object.__setattr__(self, "continent_mix", tuple(self.continent_mix))
        for name in ("seed", "n_train_events", "n_eval_events"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.n_destinations < 3:
            raise ConfigError("need at least 3 destinations")
        if self.n_listings < 200 * self.n_destinations:
            raise ConfigError("need at least 200 listings per destination")
        if not 0.0 <= self.outlier_rate < 0.5:
            raise ConfigError(f"outlier_rate {self.outlier_rate} outside [0, 0.5)")
        if not 0.0 <= self.pan_discovery_rate <= 1.0:
            raise ConfigError(f"pan_discovery_rate {self.pan_discovery_rate} invalid")
        # Every continent needs a destination: a shard without one has no
        # training searches, and the gap band is engineered in AMER.
        mix = self.continent_mix
        if len(mix) != 3 or not all(0 < w < math.inf for w in mix) or not sum(mix) < math.inf:
            raise ConfigError(f"continent_mix must be 3 positive weights with a finite sum, got {list(mix)}")


@dataclass(frozen=True)
class Cluster:
    lat: float
    lng: float
    spread_km: float
    weight: float


@dataclass(frozen=True)
class Destination:
    dest_id: int
    name: str
    lat: float
    lng: float
    dest_type: str
    country: str
    continent: str
    bounds_diagonal_km: float
    clusters: tuple[Cluster, ...]


@dataclass(frozen=True, eq=False)
class ListingStore:
    """The listing inventory as columns, one row per listing, rows sorted
    by listing id (ids are unique), so id -> row is a binary search.
    `cells` holds each listing's retrieval-level cell."""

    ids: np.ndarray  # int64
    lats: np.ndarray  # float64
    lngs: np.ndarray  # float64
    capacities: np.ndarray  # int64
    active: np.ndarray  # bool
    cells: np.ndarray  # uint64

    @classmethod
    def from_columns(cls, ids, lats, lngs, capacities, active) -> "ListingStore":
        """Sort the rows by id and compute every listing's cell, once."""
        ids = np.asarray(ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        repeats = ids[1:][ids[1:] == ids[:-1]]
        if repeats.size:
            raise DataError(f"listing id {repeats[0]} repeats")
        lats = np.asarray(lats, dtype=np.float64)[order]
        lngs = np.asarray(lngs, dtype=np.float64)[order]
        return cls(
            ids,
            lats,
            lngs,
            np.asarray(capacities, dtype=np.int64)[order],
            np.asarray(active, dtype=bool)[order],
            cells_from_latlng_vec(lats, lngs, RETRIEVAL_LEVEL),
        )

    def __len__(self) -> int:
        return self.ids.size

    def take(self, rows) -> "ListingStore":
        """The listings at the given rows; ascending rows keep id order."""
        return ListingStore(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __eq__(self, other) -> bool:
        return isinstance(other, ListingStore) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True)
class SearchEvent:
    search_id: int
    dest_id: int
    origin_country: str
    num_guests: int
    is_mobile_app: bool
    device_type: str
    trip_length_nights: int
    is_weekend: bool
    booked_listing_id: int
    booked_cell: int  # raw level-11 cell id of the booked listing
    is_outlier: bool


@dataclass(frozen=True)
class GapInfo:
    """The engineered two-cluster destination and its zero-booking band."""

    dest_id: int
    rect: GeoRect
    listing_ids: tuple[int, ...]


@dataclass
class World:
    config: GenConfig
    destinations: list[Destination]
    listings: ListingStore
    popularity: np.ndarray  # per destination, sums to 1
    gap: GapInfo


def _km_offset(lat: float, lng: float, north_km: float, east_km: float):
    lat2 = lat + north_km / KM_PER_DEG
    lng2 = lng + east_km / (KM_PER_DEG * math.cos(math.radians(lat)))
    return lat2, lng2


def km_distance(lat1, lng1, lat2, lng2):
    """Equirectangular distance in km; plenty for intra-destination scales."""
    mean_lat = np.radians(0.5 * (np.asarray(lat1) + np.asarray(lat2)))
    dy = (np.asarray(lat2) - np.asarray(lat1)) * KM_PER_DEG
    dx = (np.asarray(lng2) - np.asarray(lng1)) * KM_PER_DEG * np.cos(mean_lat)
    return np.hypot(dx, dy)


def _assign_continents(cfg: GenConfig, rng) -> list[str]:
    mix = np.asarray(cfg.continent_mix, dtype=np.float64)
    mix = mix / mix.sum()
    # Guarantee one destination per continent.
    out = list(CONTINENTS)
    remaining = cfg.n_destinations - len(out)
    out.extend(rng.choice(CONTINENTS, size=remaining, p=mix).tolist())
    return out


def _place_centers(continents, rng):
    placed: dict[str, list[tuple[float, float]]] = {c: [] for c in CONTINENTS}
    centers = []
    for cont in continents:
        lat_lo, lat_hi, lng_lo, lng_hi = CONTINENT_BOXES[cont]
        for _ in range(200):
            lat = float(rng.uniform(lat_lo + 1.5, lat_hi - 1.5))
            lng = float(rng.uniform(lng_lo + 1.5, lng_hi - 1.5))
            if all(
                km_distance(lat, lng, plat, plng) > 150.0
                for plat, plng in placed[cont]
            ):
                break
        else:
            raise DataError(f"could not place destination in {cont}")
        placed[cont].append((lat, lng))
        centers.append((lat, lng))
    return centers


def _make_destination(dest_id, cont, lat, lng, rng, engineered_gap: bool):
    dest_type = str(rng.choice(DEST_TYPES, p=DEST_TYPE_WEIGHTS))
    country = str(rng.choice(COUNTRY_POOLS[cont]))
    diag = float(DEST_TYPE_DIAG_KM[dest_type] * rng.lognormal(0.0, 0.3))
    if engineered_gap:
        dest_type = "city"
        diag = 40.0
        b_lat, b_lng = _km_offset(lat, lng, 0.0, _GAP_CLUSTER_OFFSET_KM)
        clusters = (
            Cluster(lat, lng, _GAP_CLUSTER_SPREAD_KM, 0.72),
            Cluster(b_lat, b_lng, _GAP_CLUSTER_SPREAD_KM, 0.28),
        )
    else:
        spread = min(12.0, max(1.5, diag / 6.0))
        clusters = [Cluster(lat, lng, float(spread), 1.0)]
        if rng.random() < 0.55:
            n_extra = int(rng.integers(1, 3))
            w_primary = float(rng.uniform(0.55, 0.8))
            w_extra = (1.0 - w_primary) / n_extra
            cl = [replace(clusters[0], weight=w_primary)]
            for _ in range(n_extra):
                bearing = float(rng.uniform(0, 2 * math.pi))
                dist = float(rng.uniform(30.0, 110.0))
                clat, clng = _km_offset(
                    lat, lng, dist * math.sin(bearing), dist * math.cos(bearing)
                )
                cl.append(
                    Cluster(clat, clng, float(rng.uniform(2.0, 9.0)), w_extra)
                )
            clusters = cl
    return Destination(
        dest_id=dest_id,
        name=f"dest{dest_id:03d}",
        lat=lat,
        lng=lng,
        dest_type=dest_type,
        country=country,
        continent=cont,
        bounds_diagonal_km=diag,
        clusters=tuple(clusters),
    )


def _gap_rect(dest: Destination) -> GeoRect:
    a = dest.clusters[0]
    lat_lo, lng_lo = _km_offset(a.lat, a.lng, -_GAP_HALF_WIDTH_KM, _GAP_NEAR_KM)
    lat_hi, lng_hi = _km_offset(a.lat, a.lng, _GAP_HALF_WIDTH_KM, _GAP_FAR_KM)
    return GeoRect(lat_lo, lat_hi, lng_lo, lng_hi)


def _sample_capacity(rng, n) -> np.ndarray:
    return np.minimum(rng.geometric(0.45, size=n), MAX_CAPACITY)


def _split_exact(total: int, weights, minimum: int) -> np.ndarray:
    """Integer allocation proportional to weights, summing exactly to
    total, with every part at least minimum."""
    w = np.asarray(weights, dtype=np.float64)
    if total < minimum * w.size:
        raise DataError(
            f"cannot split {total} into {w.size} parts of at least {minimum}"
        )
    w = w / w.sum()
    ideal = w * total
    base = np.floor(ideal).astype(int)
    order = np.argsort(-(ideal - base), kind="stable")
    base[order[: total - base.sum()]] += 1
    while True:
        short = base < minimum
        if not short.any():
            return base
        lo = int(np.argmin(base))
        hi = int(np.argmax(base))
        base[lo] += 1
        base[hi] -= 1
        if base[hi] < minimum:
            raise DataError("allocation cannot satisfy per-part minimum")


def generate_world(cfg: GenConfig) -> World:
    """Destinations, listings, and popularity weights for one seed."""
    rng = np.random.default_rng(cfg.seed)
    continents = _assign_continents(cfg, rng)
    centers = _place_centers(continents, rng)

    # The first AMER destination carries the engineered gap.
    gap_dest_id = continents.index("AMER")
    destinations = [
        _make_destination(i, cont, lat, lng, rng, engineered_gap=(i == gap_dest_id))
        for i, (cont, (lat, lng)) in enumerate(zip(continents, centers))
    ]

    gap_listing_count = max(60, cfg.n_listings // 250)
    n_regular = cfg.n_listings - gap_listing_count
    shares = rng.dirichlet(np.full(cfg.n_destinations, 8.0))
    counts = _split_exact(n_regular, shares, 160)

    # (lats, lngs, capacities, active) per emitted group; listing ids
    # number the rows from 1 in emission order.
    columns = []
    for dest, total in zip(destinations, counts):
        n_background = max(4, int(total * 0.15))
        weights = [c.weight for c in dest.clusters]
        per_cluster = _split_exact(int(total) - n_background, weights, 40)
        for cluster, n_c in zip(dest.clusters, per_cluster):
            lat_sd = cluster.spread_km / KM_PER_DEG
            lng_sd = cluster.spread_km / (
                KM_PER_DEG * math.cos(math.radians(cluster.lat))
            )
            lats = rng.normal(cluster.lat, lat_sd * 1.2, n_c)
            lngs = rng.normal(cluster.lng, lng_sd * 1.2, n_c)
            caps = _sample_capacity(rng, n_c)
            columns.append((lats, lngs, caps, rng.random(n_c) < 0.97))
        half = max(dest.bounds_diagonal_km, 25.0)
        lat_h = half / KM_PER_DEG
        lng_h = half / (KM_PER_DEG * math.cos(math.radians(dest.lat)))
        lats = rng.uniform(dest.lat - lat_h, dest.lat + lat_h, n_background)
        lngs = rng.uniform(dest.lng - lng_h, dest.lng + lng_h, n_background)
        caps = _sample_capacity(rng, n_background)
        columns.append((lats, lngs, caps, rng.random(n_background) < 0.97))

    # Listings inside the engineered dead band: present, never booked.
    rect = _gap_rect(destinations[gap_dest_id])
    lats = rng.uniform(rect.lat_lo, rect.lat_hi, gap_listing_count)
    lngs = rng.uniform(rect.lng_lo, rect.lng_hi, gap_listing_count)
    caps = _sample_capacity(rng, gap_listing_count)
    columns.append((lats, lngs, caps, np.ones(gap_listing_count, dtype=bool)))
    # The band's listings are emitted last, after the n_regular others.
    gap = GapInfo(gap_dest_id, rect, tuple(range(n_regular + 1, cfg.n_listings + 1)))
    lats, lngs, caps, active = (np.concatenate(col) for col in zip(*columns))
    listings = ListingStore.from_columns(
        np.arange(1, lats.size + 1), lats, lngs, caps, active
    )

    popularity = rng.dirichlet(np.full(cfg.n_destinations, 2.0))
    floor = 2.0 / cfg.n_destinations
    if popularity[gap_dest_id] < floor:
        popularity[gap_dest_id] = floor
        popularity = popularity / popularity.sum()

    world = World(cfg, destinations, listings, popularity, gap)
    _check_gap_safety(world)
    return world


def _check_gap_safety(world: World):
    """The booking cutoff must keep every cluster's candidate radius clear
    of the gap band; cheap to verify outright at build time."""
    dest = world.destinations[world.gap.dest_id]
    rect = world.gap.rect
    for cl in dest.clusters:
        reach = BOOKING_CUTOFF_SPREADS * cl.spread_km
        # Nearest band point to the cluster center (axis clamp).
        clat = min(max(cl.lat, rect.lat_lo), rect.lat_hi)
        clng = min(max(cl.lng, rect.lng_lo), rect.lng_hi)
        nearest = float(km_distance(cl.lat, cl.lng, clat, clng))
        if nearest <= reach + 1.0:
            raise DataError(
                f"gap band within booking reach of cluster at "
                f"({cl.lat:.4f}, {cl.lng:.4f}): {nearest:.1f} km <= {reach:.1f} km"
            )


# Booking distances are computed over draws x candidates blocks of about this
# many elements (128 KiB per float64 temporary). On the benchmark's seed-1
# and seed-7 logs, blocks of 2**17 elements took 3-12% longer.
_BOOKING_BLOCK = 1 << 14


class _BookingSampler:
    """Per-cluster candidate listings (active, outside the gap band, within
    the booking cutoff of the cluster center), in store row order, and the
    outlier pools.

    A non-outlier search books the candidate nearest its drawn point among
    those that seat its party; `book` finds it for a whole group of draws
    at once. The row order decides which of two equally near listings is
    booked (argmin takes the first, so the lowest row wins), so it must not
    change."""

    def __init__(self, world: World):
        store = world.listings
        lats, lngs, caps = store.lats, store.lngs, store.capacities
        bookable = store.active & ~np.isin(store.ids, world.gap.listing_ids)

        # (dest_id, cluster) -> (rows, lats, lngs, capacities) of its candidates.
        self.candidates: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self.max_cap: dict[tuple[int, int], int] = {}
        for dest in world.destinations:
            for ci, cl in enumerate(dest.clusters):
                cutoff = BOOKING_CUTOFF_SPREADS * cl.spread_km
                # The latitude term of km_distance alone bounds the distance
                # from below (hypot(dx, dy) >= |dy|), so this band holds every
                # row within the cutoff, in row order.
                near = np.flatnonzero(np.abs((lats - cl.lat) * KM_PER_DEG) <= cutoff)
                d = km_distance(cl.lat, cl.lng, lats[near], lngs[near])
                idx = near[(d <= cutoff) & bookable[near]]
                if idx.size == 0:
                    raise DataError(
                        f"no bookable listings near cluster {ci} of "
                        f"destination {dest.dest_id}"
                    )
                self.candidates[(dest.dest_id, ci)] = (idx, lats[idx], lngs[idx], caps[idx])
                self.max_cap[(dest.dest_id, ci)] = int(caps[idx].max())

        # Outlier pool: every active listing outside the gap band, split by
        # minimum capacity.
        pool = np.flatnonzero(bookable)
        pool_caps = caps[bookable]
        self.outlier_by_guests = [
            pool[pool_caps >= g] for g in range(MAX_CAPACITY + 1)
        ]

    def book(self, dest_id, ci, party, lats, lngs) -> np.ndarray:
        """Store rows booked by the draws at (lats, lngs): for each, the
        candidate of cluster ci of dest_id nearest the draw among those
        seating the party, the lowest row on ties. The party must not
        exceed the cluster's largest capacity (`max_cap`)."""
        idx, c_lat, c_lng, c_cap = self.candidates[(dest_id, ci)]
        ok = c_cap >= party
        idx, c_lat, c_lng = idx[ok], c_lat[ok], c_lng[ok]
        step = max(1, _BOOKING_BLOCK // idx.size)
        nearest = np.empty(lats.size, dtype=np.int64)
        for s in range(0, lats.size, step):
            # One C-contiguous block of draws x candidates, each row the
            # distances km_distance gives for that draw alone.
            d = km_distance(lats[s:s + step, None], lngs[s:s + step, None], c_lat, c_lng)
            nearest[s:s + step] = np.argmin(d, axis=1)
        return idx[nearest]


def generate_search_log(
    world: World, n_events: int, start_id: int, rng
) -> list[SearchEvent]:
    """Sample search events with booked locations from the cluster mixture.

    The loop draws every event's random numbers one event at a time, in a
    fixed order: that order decides the output bytes, so it stays a loop.
    A non-outlier search only records its draw there (destination, cluster,
    party clamped to the cluster's largest capacity, point). After the loop
    one booking pass resolves each (destination, cluster, party) group with
    `_BookingSampler.book`: the nearest candidate that seats the party, the
    lowest store row on ties."""
    cfg = world.config
    sampler = _BookingSampler(world)
    dest_ids = rng.choice(
        len(world.destinations), size=n_events, p=world.popularity
    )
    rows = np.empty(n_events, dtype=np.int64)
    draw_lats = np.empty(n_events)
    draw_lngs = np.empty(n_events)
    groups: dict[tuple[int, int, int], list[int]] = {}
    drawn = []
    for i in range(n_events):
        dest = world.destinations[int(dest_ids[i])]
        guests = 1 + int(min(rng.binomial(MAX_GUESTS - 1, 0.18), MAX_GUESTS - 1))
        nights = int(min(rng.geometric(0.3), MAX_NIGHTS))
        is_weekend = bool(rng.random() < 0.35)
        mobile = bool(rng.random() < 0.55)
        if mobile:
            device = "ios_app" if rng.random() < 0.6 else "android_app"
        else:
            device = "desktop_web" if rng.random() < 0.8 else "mobile_web"
        countries = COUNTRY_POOLS[dest.continent] if rng.random() < 0.7 else ALL_COUNTRIES
        origin = countries[int(rng.integers(len(countries)))]

        is_outlier = bool(rng.random() < cfg.outlier_rate)
        if is_outlier:
            pool = sampler.outlier_by_guests[guests]
            if pool.size == 0:
                guests = 1
                pool = sampler.outlier_by_guests[1]
            rows[i] = pool[int(rng.integers(pool.size))]
        else:
            n_cl = len(dest.clusters)
            if n_cl > 1 and rng.random() < cfg.pan_discovery_rate:
                w = np.array([c.weight for c in dest.clusters])
                ci = int(rng.choice(n_cl, p=w / w.sum()))
            else:
                ci = 0
            cl = dest.clusters[ci]
            draw_lats[i] = rng.normal(cl.lat, cl.spread_km / KM_PER_DEG)
            draw_lngs[i] = rng.normal(
                cl.lng,
                cl.spread_km / (KM_PER_DEG * math.cos(math.radians(cl.lat))),
            )
            guests = min(guests, sampler.max_cap[(dest.dest_id, ci)])
            groups.setdefault((dest.dest_id, ci, guests), []).append(i)
        drawn.append((dest.dest_id, origin, guests, mobile, device, nights, is_weekend, is_outlier))

    for (dest_id, ci, party), members in groups.items():
        members = np.asarray(members)
        rows[members] = sampler.book(dest_id, ci, party, draw_lats[members], draw_lngs[members])

    ids = world.listings.ids[rows].tolist()
    cells = world.listings.cells[rows].tolist()
    return [
        SearchEvent(start_id + i, dest_id, origin, guests, mobile, device, nights,
                    is_weekend, ids[i], cells[i], is_outlier)
        for i, (dest_id, origin, guests, mobile, device, nights, is_weekend, is_outlier)
        in enumerate(drawn)
    ]


def generate_dataset(cfg: GenConfig):
    """World plus train and eval logs; eval ids continue after train ids."""
    world = generate_world(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    train = generate_search_log(world, cfg.n_train_events, 0, rng)
    eval_ = generate_search_log(world, cfg.n_eval_events, cfg.n_train_events, rng)
    return world, train, eval_


# ---------------------------------------------------------------------------
# Record files. All are line-delimited TSV with fixed field orders; floats
# use shortest round-trip formatting, booleans are 0/1, cells are decimal.

LISTING_FIELDS = ("listing_id", "lat", "lng", "capacity", "active")
DESTINATION_FIELDS = (
    "dest_id",
    "name",
    "lat",
    "lng",
    "dest_type",
    "country",
    "continent",
    "bounds_diagonal_km",
    "clusters",
)
EVENT_FIELDS = (
    "search_id",
    "dest_id",
    "origin_country",
    "num_guests",
    "is_mobile_app",
    "device_type",
    "trip_length_nights",
    "is_weekend",
    "booked_listing_id",
    "booked_cell",
    "is_outlier",
)


def _fmt_bool(b: bool) -> str:
    return "1" if b else "0"


_INT64 = range(-(2**63), 2**63)
_FLAGS = ("0", "1")


def _parse_point(lat_text: str, lng_text: str) -> tuple[float, float]:
    lat, lng = float(lat_text), float(lng_text)
    # NaN fails every comparison, so it is rejected here as well.
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lng <= 180.0):
        raise DataError(f"lat {lat_text} lng {lng_text} is not a point on the sphere")
    return lat, lng


def _read_tsv(path, fields, parse_row) -> list:
    """parse_row applied to every row of a UTF-8 record file with the given
    header. Bytes that are not UTF-8, a row with the wrong field count or a
    field that does not parse raise DataError naming the file (and, for a
    row, its 1-based line)."""
    out = []
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split("\t")
            if tuple(header) != fields:
                raise DataError(f"{path}: unexpected header {header}")
            for lineno, line in enumerate(f, start=2):
                p = line.rstrip("\n").split("\t")
                if len(p) != len(fields):
                    raise DataError(f"{path}:{lineno}: expected {len(fields)} fields, got {len(p)}")
                try:
                    out.append(parse_row(p))
                except (ValueError, DataError) as exc:
                    raise DataError(f"{path}:{lineno}: bad row: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    return out


def write_listings(path, listings: ListingStore):
    rows = zip(
        listings.ids.tolist(),
        listings.lats.tolist(),
        listings.lngs.tolist(),
        listings.capacities.tolist(),
        listings.active.tolist(),
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(LISTING_FIELDS) + "\n")
        for lid, lat, lng, capacity, active in rows:
            f.write(f"{lid}\t{repr(lat)}\t{repr(lng)}\t{capacity}\t{_fmt_bool(active)}\n")


def _listing_row_parser():
    """The row parser of a listings file: it defines a valid row and words
    the error for a bad one."""
    seen = set()

    def parse(p):
        lid, capacity = int(p[0]), int(p[3])
        lat, lng = _parse_point(p[1], p[2])
        if capacity < 1:
            raise DataError(f"capacity {capacity} is below 1")
        if max(abs(lid), capacity) >= 2**63:
            raise DataError("listing id or capacity does not fit in 64 bits")
        if lid in seen:
            raise DataError(f"listing id {lid} repeats")
        seen.add(lid)
        if p[4] not in _FLAGS:
            raise DataError(f"active {p[4]!r} is not 0 or 1")
        return lid, lat, lng, capacity, p[4] == "1"

    return parse


# An active flag longer than one character is cut to two, which is still
# neither "0" nor "1".
_LISTING_DTYPE = np.dtype(list(zip(LISTING_FIELDS, (np.int64, np.float64, np.float64, np.int64, "U2"))))


def _listing_columns(path):
    """(ids, lats, lngs, capacities, active) of a listings file, parsed by
    column and checked with array masks, or None unless every row passes
    the row parser's checks in a spelling numpy parses (int() and float()
    also take forms such as 1_000)."""
    try:
        with open(path, encoding="utf-8") as f:
            if tuple(f.readline().rstrip("\n").split("\t")) != LISTING_FIELDS:
                return None
            text = f.read()
    except UnicodeDecodeError:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline ending the last row
    # numpy skips empty lines and ends a string at a NUL; both make a bad row.
    if "" in lines or "\x00" in text:
        return None
    if not lines:
        return [()] * len(LISTING_FIELDS)
    try:
        # numpy versions that read an integer field written as a float
        # ("2.5", "5.0", "1e3") by truncating it only warn that this is
        # deprecated; as an error the warning refuses the file.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rec = np.loadtxt(lines, dtype=_LISTING_DTYPE, delimiter="\t", comments=None, quotechar=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    ids, lats, lngs, capacities, active = (rec[name] for name in LISTING_FIELDS)
    ok = (
        # -2**63 fits in int64, but the row parser wants |id| below 2**63.
        (ids != np.iinfo(np.int64).min)
        & (np.abs(lats) <= 90.0)
        & (np.abs(lngs) <= 180.0)
        & (capacities >= 1)
        & ((active == "0") | (active == "1"))
    )
    ordered = np.sort(ids)
    if not ok.all() or (ordered[1:] == ordered[:-1]).any():
        return None
    return ids, lats, lngs, capacities, active == "1"


def read_listings(path) -> ListingStore:
    """The listing store of a listings file. A point off the sphere, a
    capacity below 1, a number beyond 64 bits, an active flag other than
    0 or 1 or a repeated listing id is a DataError naming the file and
    line.

    The rows are parsed by column. A file the columns refuse is read again
    row by row: the row parser then raises the DataError for the first bad
    line (or the header, or a byte that is not UTF-8), or reads rows
    written in spellings only int() and float() take."""
    columns = _listing_columns(path)
    if columns is None:
        rows = _read_tsv(path, LISTING_FIELDS, _listing_row_parser())
        columns = zip(*rows) if rows else [()] * len(LISTING_FIELDS)
    return ListingStore.from_columns(*columns)


def _fmt_clusters(clusters) -> str:
    return "|".join(
        f"{repr(c.lat)}:{repr(c.lng)}:{repr(c.spread_km)}:{repr(c.weight)}"
        for c in clusters
    )


def _parse_clusters(text) -> tuple[Cluster, ...]:
    out = []
    for part in text.split("|"):
        vals = part.split(":")
        if len(vals) != 4:
            raise DataError(f"bad cluster encoding {part!r}")
        out.append(Cluster(*(float(v) for v in vals)))
    return tuple(out)


def write_destinations(path, destinations):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(DESTINATION_FIELDS) + "\n")
        for d in destinations:
            f.write(
                f"{d.dest_id}\t{d.name}\t{repr(d.lat)}\t{repr(d.lng)}\t"
                f"{d.dest_type}\t{d.country}\t{d.continent}\t"
                f"{repr(d.bounds_diagonal_km)}\t{_fmt_clusters(d.clusters)}\n"
            )


def read_destinations(path) -> list[Destination]:
    """The destinations of a destinations file. A continent outside
    CONTINENTS, a center off the sphere, a bounds diagonal that is not a
    positive finite number or a repeated destination id is a DataError
    naming the file and line."""
    seen = set()

    def parse(p):
        dest_id, diagonal = int(p[0]), float(p[7])
        lat, lng = _parse_point(p[2], p[3])
        if p[6] not in CONTINENTS:
            raise DataError(f"continent {p[6]!r} is not one of {', '.join(CONTINENTS)}")
        if not (math.isfinite(diagonal) and diagonal > 0):
            raise DataError(f"bounds diagonal {p[7]} is not a positive number of km")
        if dest_id in seen:
            raise DataError(f"destination id {dest_id} repeats")
        seen.add(dest_id)
        return Destination(dest_id, p[1], lat, lng, p[4], p[5], p[6], diagonal, _parse_clusters(p[8]))

    return _read_tsv(path, DESTINATION_FIELDS, parse)


def write_events(path, events):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(EVENT_FIELDS) + "\n")
        for e in events:
            f.write(
                f"{e.search_id}\t{e.dest_id}\t{e.origin_country}\t{e.num_guests}\t"
                f"{_fmt_bool(e.is_mobile_app)}\t{e.device_type}\t"
                f"{e.trip_length_nights}\t{_fmt_bool(e.is_weekend)}\t"
                f"{e.booked_listing_id}\t{e.booked_cell}\t{_fmt_bool(e.is_outlier)}\n"
            )


def read_events(path) -> list[SearchEvent]:
    """The search events of an events file. A guest count or trip length
    below 1, an encoded number beyond 64 bits, a 0/1 field holding anything else,
    a booked cell that is not a valid retrieval-level cell id or a
    repeated search id is a DataError naming the file and line."""
    seen, cells = set(), set()  # search ids so far; booked cells found valid

    def parse(p):
        numbers = int(p[0]), int(p[1]), int(p[3]), int(p[6]), int(p[8])
        search_id, dest_id, guests, nights, booked = numbers
        cell = int(p[9])
        if guests < 1 or nights < 1:
            raise DataError(f"num_guests {guests} or trip_length_nights {nights} is below 1")
        if min(numbers) not in _INT64 or max(numbers) not in _INT64:
            raise DataError("an id, num_guests or trip_length_nights does not fit in 64 bits")
        for k in (4, 7, 10):
            if p[k] not in _FLAGS:
                raise DataError(f"{EVENT_FIELDS[k]} {p[k]!r} is not 0 or 1")
        if cell not in cells:
            if not is_retrieval_cell(cell):
                raise DataError(f"booked_cell {cell} is not a level-{RETRIEVAL_LEVEL} cell id")
            cells.add(cell)
        if search_id in seen:
            raise DataError(f"search id {search_id} repeats")
        seen.add(search_id)
        return SearchEvent(
            search_id, dest_id, p[2], guests, p[4] == "1", p[5],
            nights, p[7] == "1", booked, cell, p[10] == "1",
        )

    return _read_tsv(path, EVENT_FIELDS, parse)


def write_manifest(path, cfg: GenConfig, world: World, n_train: int, n_eval: int):
    """The generator's config, with the three counts of the data written,
    and the world's gap band, popularity and file names."""
    doc = {
        **asdict(cfg),
        "n_listings": len(world.listings),
        "n_train_events": n_train,
        "n_eval_events": n_eval,
        "gap_dest_id": world.gap.dest_id,
        "gap_rect": [
            world.gap.rect.lat_lo,
            world.gap.rect.lat_hi,
            world.gap.rect.lng_lo,
            world.gap.rect.lng_hi,
        ],
        "gap_listing_ids": list(world.gap.listing_ids),
        "popularity": [float(p) for p in world.popularity],
        "files": {
            "destinations": "destinations.tsv",
            "listings": "listings.tsv",
            "train_events": "train_events.tsv",
            "eval_events": "eval_events.tsv",
        },
    }
    write_json_artifact(path, doc)


def write_json_artifact(path, doc: dict) -> None:
    """Write doc as a format-version-1 artifact file: indented JSON with
    sorted keys, the one rendering that read_json_artifact reads."""
    with open(path, "w") as f:
        json.dump({**doc, "format_version": 1}, f, indent=1, sort_keys=True)
        f.write("\n")


def read_json_artifact(path, what: str) -> dict:
    """The JSON object of a format-version-1 artifact file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != 1:
        raise DataError(f"unsupported {what} version {version} in {path}")
    return doc


def write_dataset(data_dir, cfg: GenConfig, world: World, train, eval_):
    """Write the five dataset files into data_dir."""
    os.makedirs(data_dir, exist_ok=True)
    write_destinations(os.path.join(data_dir, "destinations.tsv"), world.destinations)
    write_listings(os.path.join(data_dir, "listings.tsv"), world.listings)
    write_events(os.path.join(data_dir, "train_events.tsv"), train)
    write_events(os.path.join(data_dir, "eval_events.tsv"), eval_)
    write_manifest(
        os.path.join(data_dir, "manifest.json"), cfg, world, len(train), len(eval_)
    )


def load_dataset(data_dir) -> World:
    """Reconstruct the world (destinations, listings and manifest) from a
    data dir. The search events are read on their own with read_events."""
    path = os.path.join(data_dir, "manifest.json")
    doc = read_json_artifact(path, "manifest")
    try:
        cfg = GenConfig(**{f.name: doc[f.name] for f in fields(GenConfig)})
        ids = doc["gap_listing_ids"]
        if not isinstance(ids, list) or not all(type(i) is int and i in _INT64 for i in ids):
            raise ValueError("gap_listing_ids is not a list of 64-bit integers")
        gap = GapInfo(doc["gap_dest_id"], GeoRect(*doc["gap_rect"]), tuple(ids))
        popularity = np.asarray(doc["popularity"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"manifest {path} has a missing or bad field: {exc!r}") from None
    destinations = read_destinations(os.path.join(data_dir, "destinations.tsv"))
    if gap.dest_id not in {d.dest_id for d in destinations}:
        raise DataError(f"manifest {path} names gap destination {gap.dest_id}, absent from destinations.tsv")
    listings = read_listings(os.path.join(data_dir, "listings.tsv"))
    band = np.asarray(gap.listing_ids, dtype=np.int64)
    absent = band[~np.isin(band, listings.ids)]
    if absent.size:
        raise DataError(f"manifest {path} names band listing {absent.min()}, absent from listings.tsv")
    return World(cfg, destinations, listings, popularity, gap)
