//! Differential tests for the TTN line codec.
//!
//! `UplinkEvent::encode`/`decode` are written for speed (one buffer, a
//! hand-rolled hex loop). The straightforward `format!`/`from_str_radix`
//! codec they replaced is kept below as the reference: the encoder must
//! produce its bytes exactly, and the decoder must agree with it on every
//! input — encoder output and seeded mutations of it — except for one
//! documented divergence: the reference's `u8::from_str_radix` accepts a
//! leading `+`, so it read `data=+f+f` as `[0x0f, 0x0f]`; the codec
//! rejects any non-hex byte.

use ctt_broker::UplinkEvent;
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::Timestamp;
use proptest::prelude::*;

mod reference {
    use super::*;

    fn hex_encode(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
        if !s.len().is_multiple_of(2) {
            return Err(format!("odd hex length {}", s.len()));
        }
        (0..s.len())
            .step_by(2)
            .map(|i| {
                s.get(i..i + 2)
                    .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                    .ok_or_else(|| format!("bad hex at {i}"))
            })
            .collect()
    }

    pub fn encode(e: &UplinkEvent) -> Vec<u8> {
        format!(
            "v1 city={} dev={:016x} fcnt={} port={} time={} gw={:016x} rssi={:.1} snr={:.1} gws={} data={}",
            e.city,
            e.device.0,
            e.fcnt,
            e.port,
            e.time.as_seconds(),
            e.gateway.0,
            e.rssi_dbm,
            e.snr_db,
            e.gateway_count,
            hex_encode(&e.payload),
        )
        .into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<UplinkEvent, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "not UTF-8".to_string())?;
        let mut parts = text.split_whitespace();
        if parts.next() != Some("v1") {
            return Err("missing v1 marker".to_string());
        }
        let mut city = None;
        let mut dev = None;
        let mut fcnt = None;
        let mut port = None;
        let mut time = None;
        let mut gw = None;
        let mut rssi = None;
        let mut snr = None;
        let mut gws = None;
        let mut data = None;
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad field {kv:?}"))?;
            let err = |what: &str| format!("bad {what}: {v:?}");
            match k {
                "city" => city = Some(v.to_string()),
                "dev" => dev = Some(u64::from_str_radix(v, 16).map_err(|_| err("dev"))?),
                "fcnt" => fcnt = Some(v.parse().map_err(|_| err("fcnt"))?),
                "port" => port = Some(v.parse().map_err(|_| err("port"))?),
                "time" => time = Some(v.parse().map_err(|_| err("time"))?),
                "gw" => gw = Some(u64::from_str_radix(v, 16).map_err(|_| err("gw"))?),
                "rssi" => rssi = Some(v.parse().map_err(|_| err("rssi"))?),
                "snr" => snr = Some(v.parse().map_err(|_| err("snr"))?),
                "gws" => gws = Some(v.parse().map_err(|_| err("gws"))?),
                "data" => data = Some(hex_decode(v)?),
                _ => {}
            }
        }
        let missing = |what: &str| format!("missing {what}");
        Ok(UplinkEvent {
            city: city.ok_or_else(|| missing("city"))?,
            device: DevEui(dev.ok_or_else(|| missing("dev"))?),
            fcnt: fcnt.ok_or_else(|| missing("fcnt"))?,
            port: port.ok_or_else(|| missing("port"))?,
            time: Timestamp(time.ok_or_else(|| missing("time"))?),
            gateway: GatewayId(gw.ok_or_else(|| missing("gw"))?),
            rssi_dbm: rssi.ok_or_else(|| missing("rssi"))?,
            snr_db: snr.ok_or_else(|| missing("snr"))?,
            gateway_count: gws.ok_or_else(|| missing("gws"))?,
            payload: data.ok_or_else(|| missing("data"))?,
        })
    }
}

/// SplitMix64: the per-case generator, seeded by the property's input.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// RSSI/SNR values: specials, rounding edges, radio-range and raw bits.
fn float(rng: &mut Mix) -> f64 {
    match rng.below(4) {
        0 => *rng.pick(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -0.05,
            0.05,
            0.25,
            -0.25,
            1e300,
            -1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
        ]),
        1 => f64::from_bits(rng.next()),
        _ => (rng.next() % 40_000) as f64 / 100.0 - 200.0,
    }
}

/// City names: plain, topic-hostile, non-ASCII, whitespace, `=`, empty.
fn city(rng: &mut Mix) -> String {
    const PIECES: [&str; 12] = [
        "trondheim",
        "vejle",
        "Tr#nd/heim+",
        "Ålesund",
        "東京",
        "",
        "a b",
        "k=v",
        "x\u{00a0}y",
        "CITY",
        "-",
        "+",
    ];
    let n = rng.below(3) + 1;
    (0..n).map(|_| *rng.pick(&PIECES)).collect()
}

fn event(rng: &mut Mix) -> UplinkEvent {
    let len = match rng.below(8) {
        0 => 0,
        1 => rng.below(300),
        _ => rng.below(24),
    };
    UplinkEvent {
        city: city(rng),
        device: DevEui(rng.next()),
        fcnt: rng.next() as u16,
        port: rng.next() as u8,
        time: Timestamp(rng.next() as i64),
        gateway: GatewayId(rng.next()),
        rssi_dbm: float(rng),
        snr_db: float(rng),
        gateway_count: rng.next() as usize,
        payload: (0..len).map(|_| rng.next() as u8).collect(),
    }
}

/// One seeded mutation of an encoded line.
fn mutate(line: &[u8], rng: &mut Mix) -> Vec<u8> {
    let mut out = line.to_vec();
    let text = String::from_utf8_lossy(line).into_owned();
    match rng.below(8) {
        // Byte flip.
        0 => {
            if !out.is_empty() {
                let i = rng.below(out.len());
                out[i] = *rng.pick(&[b'+', b'-', b' ', b'=', b'g', b'F', 0xC3, 0xFF, b'0']);
            }
        }
        // Truncation.
        1 => out.truncate(rng.below(out.len() + 1)),
        // Unicode whitespace in place of (or beside) an ASCII space.
        2 => {
            let ws = *rng.pick(&["\u{00a0}", "\u{2003}", "\u{3000}", "\t", "\n", "\u{0085}"]);
            let spaces: Vec<usize> = text.match_indices(' ').map(|(i, _)| i).collect();
            if !spaces.is_empty() {
                let i = *rng.pick(&spaces);
                let mut t = text.clone();
                if rng.below(2) == 0 {
                    t.replace_range(i..i + 1, ws);
                } else {
                    t.insert_str(i, ws);
                }
                out = t.into_bytes();
            }
        }
        // Upper-case values: payload and EUI hex, and the city.
        3 => {
            let fields: Vec<String> = text
                .split(' ')
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => format!("{k}={}", v.to_uppercase()),
                    None => kv.to_string(),
                })
                .collect();
            out = fields.join(" ").into_bytes();
        }
        // Duplicate key: a later field wins.
        4 => {
            let key = *rng.pick(&["city", "dev", "fcnt", "data", "rssi", "gws"]);
            let value = *rng.pick(&["00", "0f", "1", "-1", "zz", "", "+1", "ff00"]);
            out.extend_from_slice(format!(" {key}={value}").as_bytes());
        }
        // Unknown key, or a bare token without `=`.
        5 => {
            let extra = *rng.pick(&[" future=stuff", " x=", " =y", " loose", " data"]);
            out.extend_from_slice(extra.as_bytes());
        }
        // Odd-length or non-hex payload.
        6 => {
            let tail = *rng.pick(&["0", "g0", "\u{00e5}0", "0\u{00e5}", "日"]);
            out.extend_from_slice(tail.as_bytes());
        }
        // Stack two mutations.
        _ => {
            let once = mutate(line, rng);
            out = mutate(&once, rng);
        }
    }
    out
}

/// `decode` result as comparable text: NaN fields compare equal this way.
fn shown(r: Result<UplinkEvent, ()>) -> Result<String, ()> {
    r.map(|e| format!("{e:?}"))
}

/// Whether any `data=` field of `line` contains a `+`: the one input
/// class where the reference accepts what the codec rejects.
fn signed_data(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|t| {
        t.split_whitespace()
            .any(|kv| kv.starts_with("data=") && kv.contains('+'))
    })
}

fn check_decode(input: &[u8]) -> Result<(), TestCaseError> {
    let got = shown(UplinkEvent::decode(input).map_err(|_| ()));
    let want = shown(reference::decode(input).map_err(|_| ()));
    if got != want {
        prop_assert!(
            got.is_err() && want.is_ok() && signed_data(input),
            "decode diverges on {:?}: got {got:?}, reference {want:?}",
            String::from_utf8_lossy(input)
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn encode_matches_reference_bytes(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        for _ in 0..16 {
            let e = event(&mut rng);
            prop_assert_eq!(e.encode(), reference::encode(&e));
        }
    }

    #[test]
    fn decode_matches_reference_on_encoder_output(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        for _ in 0..16 {
            check_decode(&event(&mut rng).encode())?;
        }
    }

    #[test]
    fn decode_matches_reference_on_mutations(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        for _ in 0..4 {
            let line = event(&mut rng).encode();
            for _ in 0..16 {
                check_decode(&mutate(&line, &mut rng))?;
            }
        }
    }
}

#[test]
fn signed_hex_is_the_one_divergence() {
    let e = UplinkEvent {
        city: "trondheim".to_string(),
        device: DevEui(7),
        fcnt: 1,
        port: 2,
        time: Timestamp(1_490_000_000),
        gateway: GatewayId(1),
        rssi_dbm: -103.4,
        snr_db: 5.2,
        gateway_count: 2,
        payload: vec![0x0f, 0x0f],
    };
    let line = String::from_utf8(e.encode()).unwrap();
    assert!(line.ends_with(" data=0f0f"));
    let signed = line.replace(" data=0f0f", " data=+f+f");
    assert_eq!(reference::decode(signed.as_bytes()), Ok(e.clone()));
    assert!(UplinkEvent::decode(signed.as_bytes()).is_err());
    assert_eq!(UplinkEvent::decode(line.as_bytes()), Ok(e));
}
